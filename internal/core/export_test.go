package core

import "slices"

// liveSSIDsLocked returns every live SSID ascending. Caller holds sstMu.
// SSID order is not recency order across levels; the flat list serves
// identity (table counts, file sets), not read resolution.
func (db *DB) liveSSIDsLocked() []uint64 {
	var ids []uint64
	for _, lvl := range db.levels {
		for _, t := range lvl {
			ids = append(ids, t.SSID)
		}
	}
	slices.Sort(ids)
	return ids
}

// compact runs compactions synchronously until no further job is picked
// and none is in flight, forcing a merge of L0 (plus its L1 overlap) even
// below the score threshold: the "merge everything down" lever. Like the
// background workers it defers under a held checkpoint pin.
func (db *DB) compact() {
	for {
		db.runCompactions(true)
		if db.pendingCompact.value() == 0 {
			return
		}
		// A background job is mid-merge, and its claims (compactL0Busy, the
		// per-table busy set) may be what made this pass's pick come up
		// empty. Wait it out — the release can unblock a due job the forced
		// pass was meant to run — then sweep again.
		db.pendingCompact.wait()
	}
}

// pinCount reports the pins on one SSID, for asserting pin lifecycles.
func (db *DB) pinCount(id uint64) int {
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	return db.pinnedSSIDs[id]
}
