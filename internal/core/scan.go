package core

// Cross-rank ordered scans. Keys are hash-partitioned, so any rank may own
// keys anywhere in a range: DB.Scan scatters to every rank and k-way merges
// the sorted streams at the caller. Each owner serves its stream as a paged
// continuation — the scan's pinned iterator is parked in a registry between
// page requests, so the handler worker is freed after every page and a slow
// consumer can never hold one. Retried page requests are idempotent: the
// request names the page it wants, and the owner replays the previous page
// for a duplicate instead of advancing the iterator.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"papyruskv/internal/memtable"
	"papyruskv/internal/mpi"
	"papyruskv/internal/sstable"
)

// scanKey names one remote scan at its owner: the caller's rank plus the
// caller-allocated scan ID (drawn from its sendSeq space, unique per life).
type scanKey struct {
	source int
	id     uint64
}

// openScan is one parked remote scan. mu serializes page production against
// the idle sweep and duplicate requests; lastPage/lastDone replay the most
// recent page for a retried request that lost its reply.
type openScan struct {
	mu       sync.Mutex
	it       *Iterator // nil before open and after the final page
	started  bool
	nextPage uint32
	lastPage []byte
	lastDone bool
	lastUsed time.Time
	closed   bool
}

// closeLocked releases the scan's iterator and marks it dead.
func (s *openScan) closeLocked() {
	if s.it != nil {
		s.it.Close()
		s.it = nil
	}
	s.closed = true
}

// scanRegistry is the owner-side table of parked scans.
type scanRegistry struct {
	mu sync.Mutex
	m  map[scanKey]*openScan
}

func (r *scanRegistry) getOrCreate(k scanKey) *openScan {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.m[k]; ok {
		return s
	}
	s := &openScan{lastUsed: time.Now()}
	r.m[k] = s
	return s
}

func (r *scanRegistry) get(k scanKey) *openScan {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[k]
}

func (r *scanRegistry) remove(k scanKey) *openScan {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.m[k]
	delete(r.m, k)
	return s
}

func (r *scanRegistry) snapshot() map[scanKey]*openScan {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[scanKey]*openScan, len(r.m))
	for k, s := range r.m {
		out[k] = s
	}
	return out
}

// closeAll releases every parked scan; Close calls it after the handler is
// down, so no request can race the teardown.
func (r *scanRegistry) closeAll(db *DB) {
	for k, s := range r.snapshot() {
		s.mu.Lock()
		s.closeLocked()
		s.mu.Unlock()
		r.remove(k)
	}
}

// expireScans reaps remote scans idle past ScanIdleTimeout, releasing their
// pinned snapshots; the prober's tick drives it. An abandoned consumer (a
// caller that died mid-scan, or whose fire-and-forget close was lost) costs
// at most one timeout's worth of pinned files.
func (db *DB) expireScans() {
	timeout := db.opt.ScanIdleTimeout
	if timeout <= 0 {
		return
	}
	// A completed scan holds no pins — its entry survives only to replay a
	// lost final page, so it is reaped after one retry ladder's worth of
	// time, not the full idle timeout. Otherwise a scan-heavy workload
	// accumulates 30 seconds of dead entries and their retained pages.
	replay := 2 * time.Duration(db.opt.RetryAttempts) * db.opt.RetryTimeout
	if replay <= 0 || replay > timeout {
		replay = timeout
	}
	now := time.Now()
	for k, s := range db.scans.snapshot() {
		s.mu.Lock()
		cutoff := timeout
		if s.started && s.it == nil {
			cutoff = replay
		}
		expired := now.Sub(s.lastUsed) > cutoff
		if expired {
			s.closeLocked()
		}
		s.mu.Unlock()
		if expired && db.scans.remove(k) != nil {
			db.metrics.ScansExpired.Add(1)
		}
	}
}

// handleScan serves one scan control message on a handler worker. Open and
// next produce (or replay) one page and reply; close is fire-and-forget.
// The worker is occupied only while producing the page — between pages the
// scan lives in the registry, which is the whole point of the paging.
func (db *DB) handleScan(m mpi.Message) {
	req, err := decodeScanRequest(m.Data)
	if err != nil {
		db.metrics.BadRequests.Add(1)
		return
	}
	key := scanKey{source: m.Source, id: req.ScanID}
	if req.Op == scanOpClose {
		// Handled before the health gate: releasing pins must work on a
		// failed rank too, or its files stay pinned until Close.
		if s := db.scans.remove(key); s != nil {
			s.mu.Lock()
			s.closeLocked()
			s.mu.Unlock()
		}
		return
	}
	resp := scanResponse{Seq: req.Seq, Page: req.Page}
	// readHealth, not Health: a Degraded (read-only) rank's MemTables and
	// SSTables are intact, so it keeps serving scans.
	if healthErr := db.readHealth(); healthErr != nil {
		resp.Status, resp.Err = scanErrorFailed, healthErr.Error()
		db.sendResp(m.Source, tagScanResp, encodeScanResponse(resp))
		return
	}
	var s *openScan
	switch req.Op {
	case scanOpOpen:
		// getOrCreate makes a duplicated open idempotent: the retry finds
		// the scan the lost-reply original created and replays page 0.
		s = db.scans.getOrCreate(key)
	case scanOpNext:
		s = db.scans.get(key)
	default:
		db.metrics.BadRequests.Add(1)
		return
	}
	if s == nil {
		resp.Status = scanUnknown
		db.sendResp(m.Source, tagScanResp, encodeScanResponse(resp))
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		resp.Status = scanUnknown
		db.sendResp(m.Source, tagScanResp, encodeScanResponse(resp))
		return
	}
	s.lastUsed = time.Now()
	if !s.started {
		it, err := db.newIterator(req.Lo, req.Hi, false)
		if err != nil {
			s.closeLocked()
			db.scans.remove(key)
			resp.Status, resp.Err = scanStatusFor(err), err.Error()
			db.sendResp(m.Source, tagScanResp, encodeScanResponse(resp))
			return
		}
		s.it, s.started = it, true
	}
	switch {
	case s.nextPage > 0 && req.Page == s.nextPage-1:
		// Duplicate of the last answered request (its reply was lost):
		// replay the retained page, byte-identical.
		resp.Status, resp.Done, resp.Payload = scanOK, s.lastDone, s.lastPage
	case req.Page != s.nextPage || s.lastDone:
		// Out of protocol — a page neither current nor previous, or paging
		// past the end. Unrecoverable desync: drop the scan.
		s.closeLocked()
		db.scans.remove(key)
		resp.Status = scanUnknown
	default:
		frame, done, err := db.producePage(s, int(req.MaxBytes))
		if err != nil {
			s.closeLocked()
			db.scans.remove(key)
			resp.Status, resp.Err = scanStatusFor(err), err.Error()
			break
		}
		if done {
			// The stream is exhausted: release the pins now — the caller
			// sends no close for a completed stream — but keep the registry
			// entry so a retried final-page request replays instead of
			// erroring; the idle sweep reaps it.
			s.it.Close()
			s.it = nil
		}
		// Retain the payload for replay; the frame carries this request's
		// seq, so a retried request re-encodes around it. A short page in a
		// full-size frame is copied out so the retention does not keep the
		// whole frame's array alive.
		payload := frame[scanRespHeader:len(frame):len(frame)]
		if cap(frame)-len(frame) > len(frame) {
			payload = append([]byte(nil), payload...)
		}
		s.lastPage = payload
		s.lastDone = done
		s.nextPage++
		db.metrics.ScanPages.Add(1)
		// The frame was built around the payload by producePage: seal the
		// header in place and hand it over without another copy.
		db.sendRespOwned(m.Source, tagScanResp, sealScanPageFrame(frame, resp.Seq, done, req.Page))
		return
	}
	db.sendResp(m.Source, tagScanResp, encodeScanResponse(resp))
}

// producePage pulls entries from the scan's iterator until the encoded page
// reaches maxBytes (at least one entry always fits), encoding each entry
// straight into a response frame — DecodeEntries' payload format after a
// reserved scanRespHeader, so the page's bytes are copied exactly once on
// the owner (handleScan patches the header and hands the frame to SendOwned
// without another copy). Tombstones ride along: the caller's merge filters
// them at its own edge, keeping the suppression rule in exactly one place
// per side.
func (db *DB) producePage(s *openScan, maxBytes int) ([]byte, bool, error) {
	if maxBytes <= 0 {
		maxBytes = db.opt.ScanPageBytes
	}
	frame := make([]byte, scanRespHeader+4, scanRespHeader+4+maxBytes)
	var count uint32
	var u32 [4]byte
	done := false
	for {
		e, ok, err := s.it.step()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			done = true
			break
		}
		binary.LittleEndian.PutUint32(u32[:], uint32(len(e.Key)))
		frame = append(frame, u32[:]...)
		binary.LittleEndian.PutUint32(u32[:], uint32(len(e.Value)))
		frame = append(frame, u32[:]...)
		var flags byte
		if e.Tombstone {
			flags |= 1
		}
		frame = append(frame, flags)
		frame = append(frame, e.Key...)
		frame = append(frame, e.Value...)
		count++
		if len(frame)-scanRespHeader >= maxBytes {
			break
		}
	}
	binary.LittleEndian.PutUint32(frame[scanRespHeader:], count)
	return frame, done, nil
}

// scanStatusFor triages an owner-side scan failure into its typed status, so
// the caller can rebuild the matching sentinel across the wire.
func scanStatusFor(err error) byte {
	switch {
	case errors.Is(err, sstable.ErrCorrupt):
		return scanErrorCorrupt
	case errors.Is(err, ErrRankFailed):
		return scanErrorFailed
	default:
		return scanError
	}
}

// remoteScanError rebuilds a typed error from a remote scan error status
// (remoteGetError's discipline: sentinel identity is lost on the wire, the
// status restores it).
func remoteScanError(owner int, status byte, msg string) error {
	var sentinel error
	switch status {
	case scanErrorCorrupt:
		sentinel = ErrCorrupt
	case scanErrorFailed:
		sentinel = ErrRankFailed
	default:
		return fmt.Errorf("papyruskv: scan of rank %d: %s", owner, msg)
	}
	msg = strings.TrimPrefix(msg, sentinel.Error()+": ")
	return fmt.Errorf("papyruskv: scan of rank %d: %w: %s", owner, sentinel, msg)
}

// scanStream is the caller's handle on one owner rank's sorted stream: a
// buffered page plus the paged-fetch state machine.
type scanStream struct {
	db     *DB
	owner  int
	id     uint64
	lo, hi []byte
	opened bool
	done   bool
	page   uint32
	buf    []memtable.Entry
	i      int
	err    error
}

// pull returns the stream's next entry, fetching the next page when the
// buffer drains. Entries alias the page's wire frame, which stays alive as
// long as anything references its entries.
func (s *scanStream) pull(ctx context.Context) (memtable.Entry, bool, error) {
	for {
		if s.err != nil {
			return memtable.Entry{}, false, s.err
		}
		if s.i < len(s.buf) {
			e := s.buf[s.i]
			s.i++
			return e, true, nil
		}
		if s.done {
			return memtable.Entry{}, false, nil
		}
		if err := s.fetch(ctx); err != nil {
			s.err = err
			return memtable.Entry{}, false, err
		}
	}
}

// fetch requests the stream's next page through getRemote's retry ladder:
// fresh seq per attempt, registered with the response router before the
// send, per-attempt timeout, exponential jittered backoff. Retries are safe
// because the request names its page — a duplicate is replayed, never
// advanced past.
func (s *scanStream) fetch(ctx context.Context) error {
	db := s.db
	if err := db.peerErr(s.owner); err != nil {
		return fmt.Errorf("papyruskv: scan: rank %d unreachable (circuit open): %w", s.owner, err)
	}
	backoff := db.opt.RetryBackoff
	var lastErr error
	for attempt := 0; attempt < db.opt.RetryAttempts; attempt++ {
		if attempt > 0 {
			db.metrics.ScanRetries.Add(1)
			if err := db.sleepBackoff(ctx, &backoff); err != nil {
				return err
			}
		}
		seq := db.sendSeq.Add(1)
		ch, err := db.calls.register(tagScanResp, seq)
		if err != nil {
			return err
		}
		op := byte(scanOpNext)
		if !s.opened {
			op = scanOpOpen
		}
		req := encodeScanRequest(scanRequest{
			Seq: seq, ScanID: s.id, Op: op, Page: s.page,
			MaxBytes: uint32(db.opt.ScanPageBytes), Lo: s.lo, Hi: s.hi,
		})
		if err := db.reqComm.Send(s.owner, tagScan, req); err != nil {
			db.calls.deregister(tagScanResp, seq)
			return err
		}
		m, err := db.awaitReply(ctx, ch)
		db.calls.deregister(tagScanResp, seq)
		if errors.Is(err, mpi.ErrTimeout) {
			lastErr = err
			continue
		}
		if err != nil {
			return err
		}
		resp, err := decodeScanResponse(m.Data)
		if err != nil {
			return err
		}
		switch resp.Status {
		case scanOK:
			entries, err := memtable.DecodeEntries(resp.Payload)
			if err != nil {
				return err
			}
			s.buf, s.i = entries, 0
			s.opened = true
			s.page++
			s.done = resp.Done
			return nil
		case scanUnknown:
			return fmt.Errorf("papyruskv: scan of rank %d lost its continuation (expired or desynced); rerun the scan", s.owner)
		default:
			return remoteScanError(s.owner, resp.Status, resp.Err)
		}
	}
	err := fmt.Errorf("papyruskv: rank %d did not answer scan after %d attempts: %w",
		s.owner, db.opt.RetryAttempts, lastErr)
	db.peerFail(s.owner, err)
	return err
}

// abort releases the owner side of an unfinished stream with a
// fire-and-forget close: no reply, no retry — if it is lost, the owner's
// idle sweep reaps the scan one timeout later.
func (s *scanStream) abort() {
	if s.done && s.err == nil {
		return // the owner released the scan with the final page
	}
	req := encodeScanRequest(scanRequest{Seq: s.db.sendSeq.Add(1), ScanID: s.id, Op: scanOpClose})
	_ = s.db.reqComm.Send(s.owner, tagScan, req)
}

// Scan streams every live pair with lo <= key < hi (nil lo: from the start;
// nil hi: to the end), in ascending key order, to fn. The key and value
// slices passed to fn are reused between calls; fn must copy anything it
// keeps. A non-nil fn error aborts the scan and is returned.
//
// The view is a per-rank snapshot taken when each rank opens its iterator:
// writes, flushes, and compactions that land after that are invisible, and
// compaction cannot unlink an SSTable any open snapshot reads. Consistency
// follows the get path's rules: the caller sees its own staged (relaxed
// mode, not yet migrated) writes and deletes shadowing the owners' streams,
// but not other ranks' staged writes — those become visible at the next
// fence, exactly as for Get. Degraded (read-only) ranks serve their portion
// normally; a Failed rank fails the scan with ErrRankFailed.
//
// ctx bounds the whole call: cancellation or deadline expiry aborts the
// merge between pairs, releases the local snapshot, and sends best-effort
// closes for the remote continuations (owners reap lost ones after
// ScanIdleTimeout).
func (db *DB) Scan(ctx context.Context, lo, hi []byte, fn func(key, value []byte) error) error {
	if fn == nil {
		return fmt.Errorf("%w: nil scan callback", ErrInvalidArgument)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if len(lo) > 0 && len(hi) > 0 && bytes.Compare(lo, hi) >= 0 {
		return nil
	}
	if err := db.checkOpen(); err != nil {
		return err
	}
	db.maybeKill()
	if err := db.readHealth(); err != nil {
		return err
	}
	db.metrics.Scans.Add(1)

	// The self-source includes the staging tables (withStaging): locally
	// staged entries must shadow their owners' streams. It heads the merge's
	// recency list, implementing staging-wins on key ties; streams never tie
	// with each other (hash partitioning is disjoint).
	self, err := db.newIterator(lo, hi, true)
	if err != nil {
		return err
	}
	defer self.Close()

	sources := []sstable.Source{self.step}
	var streams []*scanStream
	defer func() {
		for _, st := range streams {
			st.abort()
		}
	}()
	for r := 0; r < db.rt.size; r++ {
		if r == db.rt.rank {
			continue
		}
		st := &scanStream{db: db, owner: r, id: db.sendSeq.Add(1), lo: lo, hi: hi}
		streams = append(streams, st)
		sources = append(sources, func() (memtable.Entry, bool, error) { return st.pull(ctx) })
	}

	// Fan the opens out in parallel: the first pages arrive concurrently
	// instead of one owner round-trip at a time. Errors park in st.err and
	// surface from the first pull below.
	if len(streams) > 0 {
		var wg sync.WaitGroup
		for _, st := range streams {
			wg.Add(1)
			go func(st *scanStream) {
				defer wg.Done()
				if err := st.fetch(ctx); err != nil {
					st.err = err
				}
			}(st)
		}
		wg.Wait()
	}

	m, err := sstable.NewMerger(sources)
	if err != nil {
		return err
	}
	var keyBuf, valBuf []byte
	for {
		select {
		case <-ctx.Done():
			return fmt.Errorf("papyruskv: %w", ctx.Err())
		default:
		}
		e, ok, err := m.Next()
		if err != nil || !ok {
			return err
		}
		if e.Tombstone {
			continue
		}
		keyBuf = append(keyBuf[:0], e.Key...)
		valBuf = append(valBuf[:0], e.Value...)
		db.metrics.ScanPairs.Add(1)
		if err := fn(keyBuf, valBuf); err != nil {
			return err
		}
	}
}
