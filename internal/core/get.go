package core

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"strings"

	"papyruskv/internal/memtable"
	"papyruskv/internal/mpi"
)

// Get retrieves the value for key (papyruskv_get), following the search
// order of Figure 3. The returned slice is the caller's to keep.
func (db *DB) Get(key []byte) ([]byte, error) {
	return db.get(context.Background(), key)
}

// GetCtx is Get with a caller-supplied deadline or cancellation: the
// context's expiry unblocks a remote get waiting out the retry ladder
// against a dead or slow owner, returning the context's error wrapped for
// errors.Is. A Background context makes it identical to Get.
func (db *DB) GetCtx(ctx context.Context, key []byte) ([]byte, error) {
	return db.get(ctx, key)
}

func (db *DB) get(ctx context.Context, key []byte) ([]byte, error) {
	if len(key) == 0 {
		return nil, fmt.Errorf("%w: empty key", ErrInvalidArgument)
	}
	if err := db.checkOpen(); err != nil {
		return nil, err
	}
	db.maybeKill()
	// readHealth, not Health: a Degraded (read-only) rank keeps serving
	// gets from its MemTables and SSTables; only a Failed rank refuses.
	if err := db.readHealth(); err != nil {
		return nil, err
	}
	owner := db.opt.Hash(key, db.rt.size)
	if owner == db.rt.rank {
		db.metrics.GetsLocal.Add(1)
		val, tomb, found, err := db.getLocalFull(key)
		if err != nil {
			return nil, err
		}
		if !found || tomb {
			return nil, ErrNotFound
		}
		return copyValue(val), nil
	}
	db.metrics.GetsRemote.Add(1)
	val, err := db.getRemote(ctx, owner, key)
	if err != nil {
		return nil, err
	}
	return copyValue(val), nil
}

// copyValue detaches a result from the runtime's internal storage: the
// caller owns the returned slice (papyruskv_get allocates a fresh region),
// so mutating it must never corrupt MemTables or caches.
func copyValue(v []byte) []byte {
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// getMemoryLocked searches this rank's in-memory local structures: the
// local MemTable, then the immutable local MemTables newest-first (tail to
// head of the flushing queue), then the local cache. hit=true means the
// search is decided (found may still be a tombstone); hit=false means fall
// through to the SSTables.
func (db *DB) getMemory(key []byte) (val []byte, tomb, hit bool) {
	db.mu.Lock()
	if e, ok := db.localMT.Get(key); ok {
		db.mu.Unlock()
		db.metrics.MemTableHits.Add(1)
		return e.Value, e.Tombstone, true
	}
	for i := len(db.immLocal) - 1; i >= 0; i-- {
		if e, ok := db.immLocal[i].Get(key); ok {
			db.mu.Unlock()
			db.metrics.MemTableHits.Add(1)
			return e.Value, e.Tombstone, true
		}
	}
	db.mu.Unlock()

	if v, found, ok := db.localCache.Get(key); ok {
		db.metrics.LocalCacheHits.Add(1)
		return v, !found, true // a cached negative result acts as a tombstone
	}
	return nil, false, false
}

// getLocalFull is the complete local get: memory structures, then the
// SSTables on NVM in probe order (candidateSSIDs). Values found in SSTables are
// promoted into the local cache (Figure 3).
func (db *DB) getLocalFull(key []byte) (val []byte, tomb, found bool, err error) {
	if v, t, hit := db.getMemory(key); hit {
		return v, t, true, nil
	}
	val, tomb, found, err = db.searchOwnSSTables(key)
	if err != nil {
		return nil, false, false, err
	}
	if found {
		db.metrics.SSTableHits.Add(1)
		if !tomb {
			db.localCache.Put(key, val, true)
		}
	}
	return val, tomb, found, nil
}

// searchOwnSSTables probes this rank's candidate SSTables — every L0 table
// covering the key newest-first, then at most one table per deeper level
// (compact.go's candidateSSIDs). Concurrent compaction can delete a table
// between the list read and the file open; on a file-not-found the search
// retries with a fresh candidate list (the merged output contains
// everything the deleted inputs held).
func (db *DB) searchOwnSSTables(key []byte) ([]byte, bool, bool, error) {
	dir := db.dir(db.rt.rank)
	for attempt := 0; attempt < 3; attempt++ {
		ids := db.candidateSSIDs(key)
		val, tomb, found, err := db.searchSSTableList(dir, ids, key)
		if err == nil {
			return val, tomb, found, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, false, false, err
		}
	}
	return nil, false, false, fmt.Errorf("papyruskv: SSTable search kept racing compaction")
}

// searchSSTableList probes the given SSTables in list order — callers pass
// recency order, newest first — with the configured search mode and bloom
// usage, through the device's reader cache. A table deleted by compaction
// after ids was snapshotted surfaces as fs.ErrNotExist; its cache entry
// (possibly a stale positive, possibly the negative entry this very probe
// just created) is evicted before the error propagates, so the caller's
// retry with a fresh list starts clean.
func (db *DB) searchSSTableList(dir string, ids []uint64, key []byte) ([]byte, bool, bool, error) {
	for _, id := range ids {
		db.metrics.SSTableProbes.Add(1)
		val, tomb, found, err := db.readers.Get(dir, id, key, db.opt.SearchMode, db.opt.UseBloom)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				db.readers.Evict(dir, id)
			}
			return nil, false, false, err
		}
		if found {
			return val, tomb, true, nil
		}
	}
	return nil, false, false, nil
}

// getRemote performs a remote get: the remote MemTable, immutable remote
// MemTables (newest first), and remote cache are consulted before a request
// message crosses the network to the owner's message handler. Within a
// storage group the handler answers "search my SSTables yourself" instead
// of shipping the value (§2.7).
func (db *DB) getRemote(ctx context.Context, owner int, key []byte) ([]byte, error) {
	// Remote-side staging only exists in relaxed mode, but checking is
	// harmless (empty tables) in sequential mode.
	db.mu.Lock()
	if e, ok := db.remoteMT.Get(key); ok {
		db.mu.Unlock()
		return remoteEntryResult(e)
	}
	for i := len(db.immRemote) - 1; i >= 0; i-- {
		if e, ok := db.immRemote[i].Get(key); ok {
			db.mu.Unlock()
			return remoteEntryResult(e)
		}
	}
	db.mu.Unlock()

	if v, found, ok := db.remoteCache.Get(key); ok {
		db.metrics.RemoteCacheHits.Add(1)
		if !found {
			return nil, ErrNotFound
		}
		return v, nil
	}

	if err := db.peerErr(owner); err != nil {
		// Fail fast behind the open circuit instead of burning a retry
		// ladder; the wrap keeps errors.Is on the root cause working. The
		// prober will close the circuit when the owner answers again.
		return nil, fmt.Errorf("papyruskv: rank %d unreachable (circuit open): %w", owner, err)
	}
	// Each attempt sends a fresh request (fresh seq), registered in the
	// response router's pending-call table before the send, and waits up
	// to the retry timeout for its routed response; responses to earlier
	// timed-out attempts find no registration and are dropped centrally
	// by the router. A shared-SSTable search that races compaction also
	// re-asks, consuming an attempt.
	backoff := db.opt.RetryBackoff
	var lastErr error
	for attempt := 0; attempt < db.opt.RetryAttempts; attempt++ {
		if attempt > 0 {
			db.metrics.GetRetries.Add(1)
			if err := db.sleepBackoff(ctx, &backoff); err != nil {
				return nil, err
			}
		}
		seq := db.sendSeq.Add(1)
		ch, err := db.calls.register(tagGetResp, seq)
		if err != nil {
			return nil, err
		}
		req := encodeGetRequest(getRequest{Seq: seq, Key: key, Group: db.rt.group})
		if err := db.reqComm.Send(owner, tagGet, req); err != nil {
			db.calls.deregister(tagGetResp, seq)
			return nil, err
		}
		m, err := db.awaitReply(ctx, ch)
		db.calls.deregister(tagGetResp, seq)
		if errors.Is(err, mpi.ErrTimeout) {
			lastErr = err
			continue
		}
		if err != nil {
			return nil, err
		}
		resp, err := decodeGetResponse(m.Data)
		if err != nil {
			return nil, err
		}
		switch resp.Status {
		case getFound:
			db.remoteCache.Put(key, resp.Value, true)
			return resp.Value, nil
		case getTombstone, getNotFound:
			db.remoteCache.Put(key, nil, false)
			return nil, ErrNotFound
		case getSearchShare:
			// The pair is not in the owner's memory, but its SSTables
			// live on NVM this rank shares: read them directly, no value
			// transfer (§2.7).
			val, tomb, found, err := db.searchSSTableList(db.dir(owner), resp.SSIDs, key)
			if err != nil {
				if errors.Is(err, fs.ErrNotExist) {
					lastErr = err
					continue // compaction deleted a table under us; re-ask
				}
				return nil, err
			}
			db.metrics.SharedSSTReads.Add(1)
			if !found || tomb {
				db.remoteCache.Put(key, nil, false)
				return nil, ErrNotFound
			}
			// The key is remote-owned, so the result belongs in the remote
			// cache, exactly like a value shipped by the owner: only remote
			// caching is invalidated when the owner's updates become
			// visible (applyProtection). Storing it in localCache — whose
			// entries only local puts invalidate — would serve the owner's
			// later overwrites stale forever.
			db.remoteCache.Put(key, val, true)
			return val, nil
		case getError, getErrorCorrupt, getErrorFailed:
			return nil, remoteGetError(owner, resp.Status, resp.Err)
		default:
			return nil, fmt.Errorf("papyruskv: bad get response status %d", resp.Status)
		}
	}
	if errors.Is(lastErr, mpi.ErrTimeout) {
		err := fmt.Errorf("papyruskv: rank %d did not answer after %d attempts: %w",
			owner, db.opt.RetryAttempts, lastErr)
		db.peerFail(owner, err)
		return nil, err
	}
	return nil, fmt.Errorf("papyruskv: shared SSTable search kept racing compaction: %w", lastErr)
}

// remoteGetError rebuilds a typed error from a remote get error status. The
// owner's error crossed the wire as text, so its sentinel identity was lost;
// the typed statuses let the caller re-wrap the matching sentinel so
// errors.Is(err, ErrCorrupt) and errors.Is(err, ErrRankFailed) hold on both
// sides of the wire.
func remoteGetError(owner, status int, msg string) error {
	var sentinel error
	switch status {
	case getErrorCorrupt:
		sentinel = ErrCorrupt
	case getErrorFailed:
		sentinel = ErrRankFailed
	default:
		return fmt.Errorf("papyruskv: get from rank %d: %s", owner, msg)
	}
	// The transported text already begins with the sentinel's own message;
	// trim it so re-wrapping does not print the prefix twice.
	msg = strings.TrimPrefix(msg, sentinel.Error()+": ")
	return fmt.Errorf("papyruskv: get from rank %d: %w: %s", owner, sentinel, msg)
}

// remoteEntryResult resolves a hit in the remote-side staging MemTables.
// The returned slice still aliases the MemTable entry: ownership transfers
// at exactly one boundary, Get's copyValue at the API return edge (the same
// discipline handleGet relies on, where encodeGetResponse copies at the
// wire edge).
func remoteEntryResult(e memtable.Entry) ([]byte, error) {
	if e.Tombstone {
		return nil, ErrNotFound
	}
	return e.Value, nil
}
