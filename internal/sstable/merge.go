package sstable

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"

	"papyruskv/internal/memtable"
	"papyruskv/internal/nvm"
)

// Source is one sorted input of a Merger: each call returns the next entry
// in ascending key order, ok=false at the end. An entry a source returned
// must stay valid after the source advances — the merger holds each
// source's current entry while it pulls the next one. Every source in the
// repo satisfies this: Scanner.Next allocates per record, sealed MemTables
// are immutable, and snapshot slices and scan pages are retained.
type Source func() (memtable.Entry, bool, error)

// Merger is the store's one k-way merge (§2.5): compaction, restart
// redistribution, the per-rank iterator and the cross-rank scan all run
// through it. Sources are listed newest first; Next returns the newest
// version of each key in ascending key order, tombstones included, and
// advances every older source past the versions it shadows.
type Merger struct {
	h   inputHeap
	err error
}

// input is one source positioned on its current entry; pri is its list
// position (lower = newer, wins ties).
type input struct {
	pri  int
	cur  memtable.Entry
	pull Source
}

// inputHeap orders inputs by (current key asc, pri asc), so the top run of
// equal keys starts with the newest source.
type inputHeap []*input

func (h inputHeap) Len() int { return len(h) }
func (h inputHeap) Less(i, j int) bool {
	if c := bytes.Compare(h[i].cur.Key, h[j].cur.Key); c != 0 {
		return c < 0
	}
	return h[i].pri < h[j].pri
}
func (h inputHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *inputHeap) Push(x any)   { *h = append(*h, x.(*input)) }
func (h *inputHeap) Pop() any     { old := *h; n := len(old); s := old[n-1]; *h = old[:n-1]; return s }

// NewMerger primes a merge over sources, newest first: each source's first
// entry is pulled here, so an unreadable input fails the open.
func NewMerger(sources []Source) (*Merger, error) {
	m := &Merger{}
	for pri, pull := range sources {
		e, ok, err := pull()
		if err != nil {
			return nil, err
		}
		if ok {
			m.h = append(m.h, &input{pri: pri, cur: e, pull: pull})
		}
	}
	heap.Init(&m.h)
	return m, nil
}

// Next returns the newest version of the next key. ok=false signals the end
// of every source. A source error is sticky: it is returned from this and
// every later call.
func (m *Merger) Next() (memtable.Entry, bool, error) {
	if m.err != nil {
		return memtable.Entry{}, false, m.err
	}
	if len(m.h) == 0 {
		return memtable.Entry{}, false, nil
	}
	// The heap top is the newest version of the smallest key; consume the
	// whole run of inputs positioned on that key, advancing each past it.
	winner := m.h[0].cur
	for len(m.h) > 0 && bytes.Equal(m.h[0].cur.Key, winner.Key) {
		in := m.h[0]
		e, ok, err := in.pull()
		if err != nil {
			m.err = err
			return memtable.Entry{}, false, err
		}
		if ok {
			in.cur = e
			heap.Fix(&m.h, 0)
		} else {
			heap.Pop(&m.h)
		}
	}
	return winner, true, nil
}

// MergeTables opens one Scanner per SSTable in ids — newest FIRST; with
// leveled compaction SSID order is not recency order, so the caller states
// recency explicitly — and merges them. The returned close function
// releases the scanners; it must be called even after a merge error. The
// merge performs the sequential file reads the paper describes and never
// holds more than one record per input in memory.
func MergeTables(dev *nvm.Device, dir string, ids []uint64) (*Merger, func(), error) {
	scanners := make([]*Scanner, 0, len(ids))
	closeAll := func() {
		for _, sc := range scanners {
			sc.Close()
		}
	}
	sources := make([]Source, 0, len(ids))
	for _, id := range ids {
		sc, err := NewScanner(dev, dir, id)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		scanners = append(scanners, sc)
		sources = append(sources, sc.Next)
	}
	m, err := NewMerger(sources)
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	return m, closeAll, nil
}

// WriteMerged compacts the SSTables listed in inputs (newest first, as for
// MergeTables) into a single new SSTable newSSID. When several inputs hold
// the same key, the earliest input in the list wins.
//
// dropTombstones elides deletion markers from the output; it is only sound
// when the output lands on the bottom level of the store — any deeper table
// could otherwise resurrect the deleted key. Otherwise tombstones are
// carried into the output: a compaction over a subset of SSTables cannot
// prove the key is absent from older, unmerged tables.
//
// The inputs are NOT deleted here. The caller must first commit the
// install+delete edit to its manifest and only then Remove the inputs — a
// crash between writing the merged output and unlinking the inputs must
// leave either the old version (edit not committed: the output is an
// orphan, quarantined on reopen) or the new one (edit committed: leftover
// inputs are orphans), never a mix that resurrects overwritten values.
func WriteMerged(dev *nvm.Device, dir string, inputs []uint64, newSSID uint64, dropTombstones bool) (Meta, error) {
	m, closeAll, err := MergeTables(dev, dir, inputs)
	if err != nil {
		return Meta{}, err
	}
	defer closeAll()

	// Size the output bloom filter from the inputs' true entry counts, so
	// merging large tables keeps the configured false-positive rate and
	// merging tiny ones does not over-allocate. The count is free when the
	// input's index is in the reader cache; otherwise it is a 16-byte
	// header read. An unreadable index falls back to a rough estimate
	// rather than failing the merge — the merge itself only needs the data
	// files.
	expected := 0
	for _, id := range inputs {
		if n, err := EntryCount(dev, dir, id); err == nil {
			expected += n
		} else {
			expected += 1024
		}
	}
	w, err := NewWriter(dev, dir, newSSID, expected)
	if err != nil {
		return Meta{}, err
	}
	for {
		e, ok, err := m.Next()
		if err != nil {
			w.Abort()
			return Meta{}, err
		}
		if !ok {
			return w.Close()
		}
		if dropTombstones && e.Tombstone {
			continue
		}
		if err := w.Add(e); err != nil {
			w.Abort()
			return Meta{}, err
		}
	}
}

// EntryCount returns the number of records in SSTable ssid, from the
// device's reader cache when the table's index is already loaded, else from
// the SSIndex header (a single 16-byte read; the entries blob is not
// fetched, so the header CRC cannot be verified here — only the magic is
// checked).
func EntryCount(dev *nvm.Device, dir string, ssid uint64) (int, error) {
	if c := lookupCache(dev); c != nil {
		if n, ok := c.cachedCount(dir, ssid); ok {
			return n, nil
		}
	}
	f, err := dev.OpenFile(IndexName(dir, ssid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	hdr := make([]byte, indexHeader)
	if _, err := f.ReadAt(hdr, 0); err != nil && err != io.EOF {
		return 0, err
	}
	if binary.LittleEndian.Uint32(hdr) != indexMagic {
		return 0, fmt.Errorf("%w: bad index magic", ErrCorrupt)
	}
	count := binary.LittleEndian.Uint64(hdr[4:])
	if count > maxKVLen {
		return 0, fmt.Errorf("%w: implausible index count %d", ErrCorrupt, count)
	}
	return int(count), nil
}
