package core

// Ordered iteration with snapshot semantics (ROADMAP item 1). An Iterator is
// a per-rank k-way merge over every structure that can hold a live version of
// an owned key — the mutable local MemTable, the immutable local MemTables,
// optionally the remote-side staging tables, and all live SSTables — visited
// newest-source-first so on a key tie the most recent version wins and a
// tombstone suppresses every older incarnation below it.
//
// The snapshot discipline has two halves, split by mutability:
//
//   - MemTables: sealed tables never change, so holding the *Table reference
//     is the snapshot (flush removes a table from immLocal but cannot mutate
//     it). The mutable tables are captured with SnapshotRange — a bounded
//     point-in-time copy, immune to later Puts.
//   - SSTables: files are immutable but compaction unlinks superseded inputs.
//     pinSnapshotRange (compact.go) refcounts the range-overlapping live
//     tables under sstMu, and compaction consults the registry before
//     unlinking: a pinned input is parked on the zombie list (its manifest
//     Delete is already committed — the *version* moves on, only the file
//     lingers) and unlinked when the last pin drops.
//
// Flush between the MemTable capture and the SSTable pin can only add a
// table whose content the iterator already holds from the MemTable side —
// a benign duplicate the merge's newest-wins tie-break collapses — never
// remove one, because the capture happens first.

import (
	"bytes"
	"fmt"

	"papyruskv/internal/memtable"
	"papyruskv/internal/sstable"
)

// releaseSnapshot drops one pin from each id; a table whose last pin drops
// while on the zombie list is unlinked and evicted here, completing the
// deletion compaction deferred.
func (db *DB) releaseSnapshot(ids []uint64) {
	var unlink []uint64
	db.snapMu.Lock()
	for _, id := range ids {
		if db.pinnedSSIDs[id] <= 1 {
			delete(db.pinnedSSIDs, id)
			if db.zombieSSIDs[id] {
				delete(db.zombieSSIDs, id)
				unlink = append(unlink, id)
			}
		} else {
			db.pinnedSSIDs[id]--
		}
	}
	db.snapMu.Unlock()
	dir := db.dir(db.rt.rank)
	for _, id := range unlink {
		// Best effort: the version was committed long ago; a failed unlink
		// leaves an orphan the next open quarantines.
		_ = sstable.Remove(db.rt.cfg.Device, dir, id)
		db.readers.Evict(dir, id)
	}
}

// removeInputOrDefer is compact's unlink step: delete input id now, or park
// it on the zombie list if a snapshot still pins it. Once here the id has
// left the live list, so no new pin can cover it — the pin count only falls.
func (db *DB) removeInputOrDefer(dir string, id uint64) error {
	db.snapMu.Lock()
	if db.pinnedSSIDs[id] > 0 {
		db.zombieSSIDs[id] = true
		db.snapMu.Unlock()
		db.metrics.ScanUnlinksDeferred.Add(1)
		return nil
	}
	db.snapMu.Unlock()
	err := sstable.Remove(db.rt.cfg.Device, dir, id)
	db.readers.Evict(dir, id)
	return err
}

// sweepZombies unlinks every deferred table regardless of pins; Close calls
// it once the handler is down and the scan registry drained.
func (db *DB) sweepZombies() {
	db.snapMu.Lock()
	var ids []uint64
	for id := range db.zombieSSIDs {
		ids = append(ids, id)
	}
	db.zombieSSIDs = make(map[uint64]bool)
	db.snapMu.Unlock()
	dir := db.dir(db.rt.rank)
	for _, id := range ids {
		_ = sstable.Remove(db.rt.cfg.Device, dir, id)
		db.readers.Evict(dir, id)
	}
}

// sliceSource merges a pre-captured []Entry (a mutable table's SnapshotRange).
func sliceSource(entries []memtable.Entry) sstable.Source {
	i := 0
	return func() (memtable.Entry, bool, error) {
		if i >= len(entries) {
			return memtable.Entry{}, false, nil
		}
		e := entries[i]
		i++
		return e, true, nil
	}
}

// cursorSource merges a sealed table through its lock-free cursor, stopping
// at hi (empty hi: unbounded).
func cursorSource(c *memtable.Cursor, hi []byte) sstable.Source {
	return func() (memtable.Entry, bool, error) {
		if !c.Valid() {
			return memtable.Entry{}, false, nil
		}
		e := c.Entry()
		if len(hi) > 0 && bytes.Compare(e.Key, hi) >= 0 {
			return memtable.Entry{}, false, nil
		}
		c.Next()
		return e, true, nil
	}
}

// scannerSource merges one pinned SSTable through its seeked Scanner.
func scannerSource(sc *sstable.Scanner, hi []byte) sstable.Source {
	return func() (memtable.Entry, bool, error) {
		e, ok, err := sc.Next()
		if err != nil || !ok {
			return memtable.Entry{}, ok, err
		}
		if len(hi) > 0 && bytes.Compare(e.Key, hi) >= 0 {
			return memtable.Entry{}, false, nil
		}
		return e, true, nil
	}
}

// Iterator walks this rank's owned pairs in ascending key order over a
// pinned snapshot. It is single-goroutine: Next/Key/Value/Close must not be
// called concurrently. Key and Value return buffers that are reused by the
// next Next call; callers keeping a pair must copy it.
type Iterator struct {
	db       *DB
	hi       []byte
	m        *sstable.Merger
	pinned   []uint64
	scanners []*sstable.Scanner
	key, val []byte
	err      error
	closed   bool
}

// NewIterator opens an ordered iterator over the keys this rank owns in
// [lo, hi) (nil lo: from the smallest key; nil hi: to the largest). The view
// is a snapshot: puts, deletes, flushes, and compactions after the open are
// invisible, and compaction cannot unlink an SSTable the snapshot reads.
// Close must be called to release the snapshot. A Degraded (read-only) rank
// still serves iterators; only a Failed rank refuses.
func (db *DB) NewIterator(lo, hi []byte) (*Iterator, error) {
	return db.newIterator(lo, hi, false)
}

// newIterator builds the merge. withStaging additionally includes the
// remote-side staging tables (the mutable remote MemTable and the immutable
// remote list) — DB.Scan's self-source uses it so locally staged writes and
// deletes shadow the owner ranks' streams, mirroring getRemote's
// staging-first search order. Staged entries are hash-disjoint from owned
// ones, so the extra sources never collide with the local ones.
func (db *DB) newIterator(lo, hi []byte, withStaging bool) (*Iterator, error) {
	if err := db.checkOpen(); err != nil {
		return nil, err
	}
	if err := db.readHealth(); err != nil {
		return nil, err
	}
	it := &Iterator{
		db: db,
		hi: append([]byte(nil), hi...),
	}
	lo = append([]byte(nil), lo...)

	// MemTables first, SSTables second — see the package comment: this
	// order makes a concurrent flush a benign duplicate instead of a gap.
	// The source list is the merge's recency order: every MemTable source
	// outranks every SSTable source (a flushed table leaves the list only
	// after its SSTable is published, so in-memory versions are never
	// older), newest list entries first.
	var sources []sstable.Source
	db.mu.Lock()
	sources = append(sources, sliceSource(db.localMT.SnapshotRange(lo, it.hi)))
	for i := len(db.immLocal) - 1; i >= 0; i-- {
		sources = append(sources, cursorSource(db.immLocal[i].CursorFrom(lo), it.hi))
	}
	if withStaging {
		sources = append(sources, sliceSource(db.remoteMT.SnapshotRange(lo, it.hi)))
		for i := len(db.immRemote) - 1; i >= 0; i-- {
			sources = append(sources, cursorSource(db.immRemote[i].CursorFrom(lo), it.hi))
		}
	}
	db.mu.Unlock()

	// pinSnapshotRange returns the tables in probe (recency) order — L0
	// newest-first, then each deeper level's overlapping run — already
	// filtered to tables intersecting [lo, hi), so the merge opens one
	// scanner per level beyond L0 instead of one per live table.
	it.pinned = db.pinSnapshotRange(lo, it.hi)
	dir := db.dir(db.rt.rank)
	for _, id := range it.pinned {
		sc, err := sstable.NewScanner(db.rt.cfg.Device, dir, id)
		if err == nil {
			err = sc.SeekGE(lo)
		}
		if err != nil {
			if sc != nil {
				sc.Close()
			}
			it.release()
			return nil, fmt.Errorf("papyruskv: open iterator on SSTable %d: %w", id, err)
		}
		it.scanners = append(it.scanners, sc)
		sources = append(sources, scannerSource(sc, it.hi))
	}

	m, err := sstable.NewMerger(sources)
	if err != nil {
		it.release()
		return nil, err
	}
	it.m = m
	db.metrics.IteratorsOpen.Add(1)
	return it, nil
}

// step emits the winning version of the next key — tombstones included, so
// internal consumers (the cross-rank merge, the page producer) can let a
// newer source's tombstone shadow an older rank-remote stream. Entries alias
// runtime memory and stay valid while the snapshot is open.
func (it *Iterator) step() (memtable.Entry, bool, error) {
	e, ok, err := it.m.Next()
	if err != nil {
		it.err = err
	}
	return e, ok, err
}

// Next advances to the next live pair, reporting whether one exists.
// Tombstones are filtered here, at the public edge: a deleted key simply
// does not appear.
func (it *Iterator) Next() bool {
	if it.closed || it.err != nil {
		return false
	}
	for {
		e, ok, err := it.step()
		if err != nil || !ok {
			return false
		}
		if e.Tombstone {
			continue
		}
		it.key = append(it.key[:0], e.Key...)
		it.val = append(it.val[:0], e.Value...)
		return true
	}
}

// Key returns the current pair's key; valid until the next Next or Close.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current pair's value; valid until the next Next or Close.
func (it *Iterator) Value() []byte { return it.val }

// Err returns the first error the iteration hit, if any.
func (it *Iterator) Err() error { return it.err }

// Close releases the snapshot: scanners close, pins drop, and any zombie
// table this snapshot was the last reader of is unlinked. Close is
// idempotent.
func (it *Iterator) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.db.metrics.IteratorsOpen.Add(^uint64(0))
	it.release()
	return nil
}

// release tears down scanners and pins; shared by Close and the open-path
// error exits (which run before the gauge increment).
func (it *Iterator) release() {
	for _, sc := range it.scanners {
		sc.Close()
	}
	it.scanners = nil
	if it.pinned != nil {
		it.db.releaseSnapshot(it.pinned)
		it.pinned = nil
	}
}
