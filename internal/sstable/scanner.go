package sstable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"papyruskv/internal/memtable"
	"papyruskv/internal/nvm"
)

// Scanner streams the records of one SSData file in key order, reading the
// file in large sequential chunks. Its Next is a merge Source: every record
// it returns has its own allocation, so it stays valid after the scanner
// advances. Compaction and restart redistribution (through MergeTables),
// the per-rank iterator (after a SeekGE), and sequential-search gets use it.
type Scanner struct {
	f    *nvm.File
	dev  *nvm.Device
	dir  string
	ssid uint64
	buf  []byte
	off  int64 // file offset of buf[0]
	pos  int   // parse position within buf
	size int64
	// pending holds one decoded record SeekGE's degraded (index-less) path
	// read past the seek point; Next returns it before touching the file.
	pending *memtable.Entry
}

// scannerChunk is the sequential read unit. Compaction "needs sequential
// file read" (§2.5); 1MB chunks keep it bandwidth-bound, not latency-bound.
const scannerChunk = 1 << 20

// NewScanner opens SSTable ssid's data file for a sequential scan.
func NewScanner(dev *nvm.Device, dir string, ssid uint64) (*Scanner, error) {
	f, err := dev.OpenFile(DataName(dir, ssid))
	if err != nil {
		return nil, err
	}
	return &Scanner{f: f, dev: dev, dir: dir, ssid: ssid, size: f.Size()}, nil
}

// SeekGE positions the scanner so the next record returned is the first one
// with key >= key, using the SSIndex to binary-search for the right offset
// instead of decoding the whole file. An unreadable or corrupt index degrades
// to a forward decode from offset 0 — a slower scan, never a failed one; the
// data records' own CRCs still guard every byte actually returned. A nil or
// empty key rewinds to the start.
//
// Seeking resets any buffered read-ahead; interleaving SeekGE with Next is
// allowed but each seek pays a fresh sequential read.
func (s *Scanner) SeekGE(key []byte) error {
	s.pending = nil
	if len(key) == 0 {
		s.rewindTo(0)
		return nil
	}
	// Probe the first record's key before touching the index: a seek at or
	// before the table's first key — every scan whose range covers the whole
	// table — resolves with one small read instead of an index load plus a
	// binary search of point reads. Undecidable probes (empty table, corrupt
	// or oversized first key) fall through to the index path.
	if atOrAfter, decided := s.firstKeyAtLeast(key); decided && atOrAfter {
		s.rewindTo(0)
		return nil
	}
	recs, err := loadIndex(s.dev, s.dir, s.ssid)
	if err != nil {
		// Corrupt, truncated, or missing index: fall back to scanning
		// forward from the start. The degraded path buffers the first
		// record >= key so it is not lost to the probe.
		s.rewindTo(0)
		return s.skipTo(key)
	}
	// Binary search for the first record with recKey >= key. Index entries
	// carry offsets, not keys, so each probe reads (and CRC-verifies) its
	// record through the open data file, exactly like searchRecords.
	lo, hi := 0, len(recs)
	for lo < hi {
		mid := (lo + hi) / 2
		recKey, _, _, err := readRecord(s.f, recs[mid])
		if err != nil {
			// A record the index pointed at fails validation: distrust the
			// index and degrade to the sequential path.
			s.rewindTo(0)
			return s.skipTo(key)
		}
		if bytes.Compare(recKey, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(recs) {
		s.rewindTo(s.size) // past the last key: scanner is exhausted
		return nil
	}
	s.rewindTo(int64(recs[lo].offset))
	return nil
}

// seekProbeLen bounds the first-key probe read: big enough for any sane
// first record header + key, small enough to be cheap when the answer is
// "use the index".
const seekProbeLen = 4096

// firstKeyAtLeast reports whether the table's first key is >= key, with one
// bounded read and no buffer disturbance. decided=false means the probe
// could not tell (empty table, short file, implausible header) and the
// caller should use the index. The probe skips the record CRC: it only
// routes the seek — every record actually returned is still verified by
// Next, and a misrouting from corrupt bytes surfaces there.
func (s *Scanner) firstKeyAtLeast(key []byte) (atOrAfter, decided bool) {
	n := seekProbeLen
	if int64(n) > s.size {
		n = int(s.size)
	}
	if n < recHeader {
		return false, false
	}
	probe := make([]byte, n)
	if _, err := s.f.ReadAt(probe, 0); err != nil && err != io.EOF {
		return false, false
	}
	klen := binary.LittleEndian.Uint32(probe)
	if klen > maxKVLen || recHeader+int(klen) > n {
		return false, false
	}
	first := probe[recHeader : recHeader+int(klen)]
	return bytes.Compare(first, key) >= 0, true
}

// rewindTo discards buffered data and repositions the scanner at off.
func (s *Scanner) rewindTo(off int64) {
	s.buf = s.buf[:0]
	s.off = off
	s.pos = 0
}

// skipTo is SeekGE's index-less fallback: decode records forward until one
// with key >= key appears, and hold it for the next Next call.
func (s *Scanner) skipTo(key []byte) error {
	for {
		e, ok, err := s.Next()
		if err != nil || !ok {
			return err
		}
		if bytes.Compare(e.Key, key) >= 0 {
			s.pending = &e
			return nil
		}
	}
}

// fill ensures at least need bytes are available at s.pos, sliding and
// extending the buffer as required. Returns false at clean EOF.
func (s *Scanner) fill(need int) (bool, error) {
	avail := len(s.buf) - s.pos
	if avail >= need {
		return true, nil
	}
	remainingInFile := s.size - (s.off + int64(len(s.buf)))
	if int64(avail)+remainingInFile < int64(need) {
		if avail == 0 && remainingInFile == 0 {
			return false, nil
		}
		return false, fmt.Errorf("%w: truncated data file (need %d, have %d)", ErrCorrupt, need, int64(avail)+remainingInFile)
	}
	// Slide unconsumed bytes to the front and read the next chunk straight
	// into the buffer's spare capacity — no intermediate chunk allocation,
	// no second copy. The buffer is allocated once and reused across fills.
	copy(s.buf, s.buf[s.pos:])
	s.buf = s.buf[:avail]
	s.off += int64(s.pos)
	s.pos = 0
	toRead := scannerChunk
	if need-avail > toRead {
		toRead = need - avail
	}
	if int64(toRead) > remainingInFile {
		toRead = int(remainingInFile)
	}
	if cap(s.buf) < avail+toRead {
		grown := make([]byte, avail, avail+toRead)
		copy(grown, s.buf)
		s.buf = grown
	}
	n, err := s.f.ReadAt(s.buf[avail:avail+toRead], s.off+int64(avail))
	if err != nil && err != io.EOF {
		return false, err
	}
	s.buf = s.buf[:avail+n]
	if len(s.buf)-s.pos < need {
		return false, fmt.Errorf("%w: short read in data file", ErrCorrupt)
	}
	return true, nil
}

// Next returns the next record. ok=false signals the end of the table.
func (s *Scanner) Next() (memtable.Entry, bool, error) {
	if s.pending != nil {
		e := *s.pending
		s.pending = nil
		return e, true, nil
	}
	ok, err := s.fill(recHeader)
	if err != nil || !ok {
		return memtable.Entry{}, false, err
	}
	hdr := s.buf[s.pos:]
	klen := binary.LittleEndian.Uint32(hdr)
	vlen := binary.LittleEndian.Uint32(hdr[4:])
	flags := hdr[8]
	if klen > maxKVLen || vlen > maxKVLen {
		return memtable.Entry{}, false, fmt.Errorf("%w: implausible record header (klen=%d vlen=%d)", ErrCorrupt, klen, vlen)
	}
	total := recHeader + int(klen) + int(vlen) + recTrailer
	if ok, err := s.fill(total); err != nil || !ok {
		if err == nil {
			err = fmt.Errorf("%w: record body truncated", ErrCorrupt)
		}
		return memtable.Entry{}, false, err
	}
	rec := s.buf[s.pos : s.pos+total]
	s.pos += total
	body := rec[:total-recTrailer]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(rec[total-recTrailer:]) {
		return memtable.Entry{}, false, fmt.Errorf("%w: record checksum mismatch", ErrCorrupt)
	}
	// One backing allocation per record: the key and value must not alias
	// s.buf (the next fill slides it), but they can share an array.
	kv := make([]byte, klen+vlen)
	copy(kv, body[recHeader:])
	return memtable.Entry{Key: kv[:klen:klen], Value: kv[klen:], Tombstone: flags&1 != 0}, true, nil
}

// Close releases the underlying file.
func (s *Scanner) Close() error { return s.f.Close() }
