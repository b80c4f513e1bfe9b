package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"papyruskv/internal/mpi"
	"papyruskv/internal/nvm"
	"papyruskv/internal/workload"
)

func TestStorageGroupSharedSSTableRead(t *testing.T) {
	// Two ranks in ONE storage group: a remote get whose answer lives in
	// the owner's SSTables must be served by reading the shared NVM
	// directly (getSearchShare), with no value transfer from the owner.
	runCluster(t, clusterSpec{ranks: 2, groupSize: 2}, func(rt *Runtime, c *mpi.Comm) error {
		opt := smallOpt()
		opt.Hash = func(key []byte, n int) int { return 0 }
		db, err := rt.Open("db", opt)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i := 0; i < 50; i++ {
				db.Put([]byte(fmt.Sprintf("k%03d", i)), workload.Value(64, i))
			}
		}
		if err := db.Barrier(LevelSSTable); err != nil {
			return err
		}
		if c.Rank() == 1 {
			for i := 0; i < 50; i += 7 {
				got, err := db.Get([]byte(fmt.Sprintf("k%03d", i)))
				if err != nil {
					return err
				}
				if !bytes.Equal(got, workload.Value(64, i)) {
					return fmt.Errorf("shared read wrong value for k%03d", i)
				}
			}
			if db.Metrics().SharedSSTReads.Load() == 0 {
				return fmt.Errorf("gets did not use the shared-SSTable path")
			}
		}
		return db.Close()
	})
}

func TestStorageGroupMissAndTombstone(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 2, groupSize: 2}, func(rt *Runtime, c *mpi.Comm) error {
		opt := smallOpt()
		opt.Hash = func(key []byte, n int) int { return 0 }
		db, err := rt.Open("db", opt)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			db.Put([]byte("alive"), []byte("v"))
			db.Put([]byte("dead"), []byte("v"))
			db.Delete([]byte("dead"))
		}
		db.Barrier(LevelSSTable)
		if c.Rank() == 1 {
			if err := wantGet(db, "alive", "v"); err != nil {
				return err
			}
			if err := wantMissing(db, "dead"); err != nil {
				return err
			}
			if err := wantMissing(db, "never-written"); err != nil {
				return err
			}
		}
		return db.Close()
	})
}

func TestCrossGroupGetTransfersValue(t *testing.T) {
	// Two ranks in DIFFERENT storage groups: values must come over the
	// network (the owner performs the full local get).
	runCluster(t, clusterSpec{ranks: 2, groupSize: 1}, func(rt *Runtime, c *mpi.Comm) error {
		opt := smallOpt()
		opt.Hash = func(key []byte, n int) int { return 0 }
		db, err := rt.Open("db", opt)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i := 0; i < 30; i++ {
				db.Put([]byte(fmt.Sprintf("k%03d", i)), workload.Value(64, i))
			}
		}
		db.Barrier(LevelSSTable)
		if c.Rank() == 1 {
			for i := 0; i < 30; i += 5 {
				got, err := db.Get([]byte(fmt.Sprintf("k%03d", i)))
				if err != nil {
					return err
				}
				if !bytes.Equal(got, workload.Value(64, i)) {
					return fmt.Errorf("cross-group value mismatch")
				}
			}
			if db.Metrics().SharedSSTReads.Load() != 0 {
				return fmt.Errorf("cross-group get used shared path")
			}
		}
		return db.Close()
	})
}

func TestProtectionRDONLY(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 2, groupSize: 1}, func(rt *Runtime, c *mpi.Comm) error {
		opt := DefaultOptions()
		opt.Hash = func(key []byte, n int) int { return 0 }
		db, err := rt.Open("db", opt)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			db.Put([]byte("k"), []byte("v"))
		}
		if err := db.SetProtection(RDONLY); err != nil {
			return err
		}
		// Writes fail while read-only.
		if err := db.Put([]byte("x"), []byte("y")); !errors.Is(err, ErrProtected) {
			return fmt.Errorf("Put under RDONLY = %v", err)
		}
		if err := db.Delete([]byte("k")); !errors.Is(err, ErrProtected) {
			return fmt.Errorf("Delete under RDONLY = %v", err)
		}
		if c.Rank() == 1 {
			// First remote get crosses the network; second hits the
			// remote cache (§3.2).
			if err := wantGet(db, "k", "v"); err != nil {
				return err
			}
			before := db.Metrics().RemoteCacheHits.Load()
			if err := wantGet(db, "k", "v"); err != nil {
				return err
			}
			if db.Metrics().RemoteCacheHits.Load() != before+1 {
				return fmt.Errorf("remote cache not used under RDONLY")
			}
		}
		// Back to RDWR: remote cache evicted and disabled, writes work.
		if err := db.SetProtection(RDWR); err != nil {
			return err
		}
		if c.Rank() == 1 {
			before := db.Metrics().RemoteCacheHits.Load()
			if err := wantGet(db, "k", "v"); err != nil {
				return err
			}
			if db.Metrics().RemoteCacheHits.Load() != before {
				return fmt.Errorf("remote cache still active after RDWR")
			}
		}
		if c.Rank() == 0 {
			if err := db.Put([]byte("x"), []byte("y")); err != nil {
				return err
			}
		}
		return db.Close()
	})
}

func TestProtectionWRONLYDisablesLocalCache(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("db", smallOpt())
		if err != nil {
			return err
		}
		for i := 0; i < 50; i++ {
			db.Put([]byte(fmt.Sprintf("k%02d", i)), workload.Value(64, i))
		}
		db.Barrier(LevelSSTable)
		wantGet(db, "k07", string(workload.Value(64, 7))) // cache it
		if err := db.SetProtection(WRONLY); err != nil {
			return err
		}
		before := db.Metrics().LocalCacheHits.Load()
		wantGet(db, "k07", string(workload.Value(64, 7)))
		if db.Metrics().LocalCacheHits.Load() != before {
			return fmt.Errorf("local cache hit under WRONLY")
		}
		if err := db.SetProtection(RDWR); err != nil {
			return err
		}
		return db.Close()
	})
}

func TestDynamicConsistencySwitch(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 2}, func(rt *Runtime, c *mpi.Comm) error {
		opt := DefaultOptions()
		opt.Hash = func(key []byte, n int) int { return 1 % n }
		db, err := rt.Open("db", opt) // starts relaxed
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := db.Put([]byte("before"), []byte("v1")); err != nil {
				return err
			}
		}
		// Collective switch: fences staged data first.
		if err := db.SetConsistency(Sequential); err != nil {
			return err
		}
		if c.Rank() == 1 {
			if err := wantGet(db, "before", "v1"); err != nil {
				return fmt.Errorf("staged put lost across switch: %w", err)
			}
		}
		if c.Rank() == 0 {
			if err := db.Put([]byte("after"), []byte("v2")); err != nil {
				return err
			}
			if db.Metrics().PutsSync.Load() == 0 {
				return fmt.Errorf("post-switch put not synchronous")
			}
			rt.SignalNotify(1, []int{1})
		} else {
			rt.SignalWait(1, []int{0})
			if err := wantGet(db, "after", "v2"); err != nil {
				return err
			}
		}
		if err := db.SetConsistency(Relaxed); err != nil {
			return err
		}
		if db.Consistency() != Relaxed {
			return fmt.Errorf("mode = %v", db.Consistency())
		}
		if err := db.SetConsistency(Consistency(42)); !errors.Is(err, ErrInvalidArgument) {
			return fmt.Errorf("bogus mode accepted: %v", err)
		}
		return db.Close()
	})
}

func TestCheckpointRestartSameRanks(t *testing.T) {
	base := t.TempDir()
	spec := clusterSpec{ranks: 2, baseDir: base}
	// Job 1: populate, checkpoint to the PFS.
	runCluster(t, spec, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("cr", smallOpt())
		if err != nil {
			return err
		}
		for i := 0; i < 120; i++ {
			k := fmt.Sprintf("r%d-%03d", c.Rank(), i)
			if err := db.Put([]byte(k), workload.Value(64, i)); err != nil {
				return err
			}
		}
		ev, err := db.Checkpoint("snap1")
		if err != nil {
			return err
		}
		// The rank may keep updating while the copy runs (§4.2).
		if err := db.Put([]byte(fmt.Sprintf("post-ckpt-%d", c.Rank())), []byte("later")); err != nil {
			return err
		}
		if err := ev.Wait(); err != nil {
			return err
		}
		if err := db.Close(); err != nil {
			return err
		}
		// Simulate end-of-job NVM trim.
		return rt.Device().Trim()
	})
	// Job 2: restart from the snapshot with the same rank count.
	runCluster(t, spec, func(rt *Runtime, c *mpi.Comm) error {
		db, ev, err := rt.Restart("snap1", "cr", smallOpt(), false)
		if err != nil {
			return err
		}
		if err := ev.Wait(); err != nil {
			return err
		}
		for r := 0; r < 2; r++ {
			for i := 0; i < 120; i += 11 {
				k := fmt.Sprintf("r%d-%03d", r, i)
				got, err := db.Get([]byte(k))
				if err != nil {
					return fmt.Errorf("restored get %s: %w", k, err)
				}
				if !bytes.Equal(got, workload.Value(64, i)) {
					return fmt.Errorf("restored value mismatch for %s", k)
				}
			}
		}
		// Post-checkpoint writes were not in the snapshot.
		if err := wantMissing(db, fmt.Sprintf("post-ckpt-%d", c.Rank())); err != nil {
			return err
		}
		return db.Close()
	})
}

func TestRestartWithRedistribution(t *testing.T) {
	base := t.TempDir()
	// Job 1: 4 ranks.
	runCluster(t, clusterSpec{ranks: 4, baseDir: base}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("cr", smallOpt())
		if err != nil {
			return err
		}
		for i := 0; i < 60; i++ {
			k := fmt.Sprintf("r%d-%03d", c.Rank(), i)
			if err := db.Put([]byte(k), workload.Value(48, i)); err != nil {
				return err
			}
		}
		// Overwrite a subset after a flush, so the snapshot holds each
		// key's old and new versions in different SSTables.
		if err := db.Barrier(LevelSSTable); err != nil {
			return err
		}
		for i := 5; i < 60; i += 10 {
			k := fmt.Sprintf("r%d-%03d", c.Rank(), i)
			if err := db.Put([]byte(k), []byte(fmt.Sprintf("newer-%d", i))); err != nil {
				return err
			}
		}
		// Exercise tombstones across the snapshot too.
		if err := db.Delete([]byte(fmt.Sprintf("r%d-000", c.Rank()))); err != nil {
			return err
		}
		ev, err := db.Checkpoint("snap-rd")
		if err != nil {
			return err
		}
		if err := ev.Wait(); err != nil {
			return err
		}
		if err := db.Close(); err != nil {
			return err
		}
		return rt.Device().Trim()
	})
	// Job 2: 3 ranks — redistribution is mandatory.
	runCluster(t, clusterSpec{ranks: 3, baseDir: base}, func(rt *Runtime, c *mpi.Comm) error {
		db, ev, err := rt.Restart("snap-rd", "cr", smallOpt(), false)
		if err != nil {
			return err
		}
		if err := ev.Wait(); err != nil {
			return err
		}
		for r := 0; r < 4; r++ {
			for i := 1; i < 60; i += 13 {
				k := fmt.Sprintf("r%d-%03d", r, i)
				got, err := db.Get([]byte(k))
				if err != nil {
					return fmt.Errorf("redistributed get %s: %w", k, err)
				}
				if !bytes.Equal(got, workload.Value(48, i)) {
					return fmt.Errorf("redistributed value mismatch for %s", k)
				}
			}
			for i := 5; i < 60; i += 10 {
				k := fmt.Sprintf("r%d-%03d", r, i)
				if err := wantGet(db, k, fmt.Sprintf("newer-%d", i)); err != nil {
					return fmt.Errorf("redistribution lost the newest version: %w", err)
				}
			}
			if err := wantMissing(db, fmt.Sprintf("r%d-000", r)); err != nil {
				return fmt.Errorf("tombstoned key resurrected: %w", err)
			}
		}
		return db.Close()
	})
}

func TestForcedRedistributionSameRanks(t *testing.T) {
	// The paper's Figure 10 forces redistribution even with equal rank
	// counts; the result must be identical data.
	base := t.TempDir()
	spec := clusterSpec{ranks: 2, baseDir: base}
	runCluster(t, spec, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("cr", smallOpt())
		if err != nil {
			return err
		}
		for i := 0; i < 40; i++ {
			db.Put([]byte(fmt.Sprintf("r%d-%02d", c.Rank(), i)), workload.Value(32, i))
		}
		ev, err := db.Checkpoint("snap-f")
		if err != nil {
			return err
		}
		if err := ev.Wait(); err != nil {
			return err
		}
		if err := db.Close(); err != nil {
			return err
		}
		return rt.Device().Trim()
	})
	runCluster(t, spec, func(rt *Runtime, c *mpi.Comm) error {
		db, ev, err := rt.Restart("snap-f", "cr", smallOpt(), true)
		if err != nil {
			return err
		}
		if err := ev.Wait(); err != nil {
			return err
		}
		for r := 0; r < 2; r++ {
			for i := 0; i < 40; i += 7 {
				k := fmt.Sprintf("r%d-%02d", r, i)
				got, err := db.Get([]byte(k))
				if err != nil || !bytes.Equal(got, workload.Value(32, i)) {
					return fmt.Errorf("forced-RD get %s: %v", k, err)
				}
			}
		}
		return db.Close()
	})
}

func TestRestartMissingSnapshot(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 1}, func(rt *Runtime, c *mpi.Comm) error {
		_, _, err := rt.Restart("no-such-snap", "db", DefaultOptions(), false)
		if !errors.Is(err, ErrNoSnapshot) {
			return fmt.Errorf("Restart(missing) = %v", err)
		}
		return nil
	})
}

func TestCheckpointWithoutPFS(t *testing.T) {
	w := mpi.NewWorld(1, mpi.Topology{})
	dir := t.TempDir()
	err := w.Run(func(c *mpi.Comm) error {
		dev, err := nvm.Open(dir, nvm.DRAM)
		if err != nil {
			return err
		}
		rt, err := NewRuntime(Config{Comm: c, Device: dev})
		if err != nil {
			return err
		}
		db, err := rt.Open("db", DefaultOptions())
		if err != nil {
			return err
		}
		if _, err := db.Checkpoint("x"); !errors.Is(err, ErrInvalidArgument) {
			return fmt.Errorf("Checkpoint without PFS = %v", err)
		}
		if _, _, err := rt.Restart("x", "db", DefaultOptions(), false); !errors.Is(err, ErrInvalidArgument) {
			return fmt.Errorf("Restart without PFS = %v", err)
		}
		return db.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierLevels(t *testing.T) {
	runCluster(t, clusterSpec{ranks: 2}, func(rt *Runtime, c *mpi.Comm) error {
		db, err := rt.Open("db", DefaultOptions())
		if err != nil {
			return err
		}
		db.Put([]byte(fmt.Sprintf("k%d", c.Rank())), []byte("v"))
		// MEMTABLE level: data visible everywhere but not flushed.
		if err := db.Barrier(LevelMemTable); err != nil {
			return err
		}
		if db.SSTableCount() != 0 {
			return fmt.Errorf("MEMTABLE barrier flushed to SSTables")
		}
		// SSTABLE level: everything on NVM.
		if err := db.Barrier(LevelSSTable); err != nil {
			return err
		}
		if db.Metrics().Flushes.Load() == 0 {
			return fmt.Errorf("SSTABLE barrier did not flush")
		}
		return db.Close()
	})
}
