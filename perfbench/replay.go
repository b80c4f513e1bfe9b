package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"papyruskv"
	"papyruskv/internal/bloom"
	"papyruskv/internal/lru"
	"papyruskv/internal/manifest"
	"papyruskv/internal/memtable"
	"papyruskv/internal/mpi"
	"papyruskv/internal/nvm"
	"papyruskv/internal/sstable"
	"papyruskv/internal/wal"
)

// replayResult is the layer replay's time per call of each layer's public
// functions, measured on the device state the timed phase left behind.
type replayResult struct {
	ns            map[string]float64
	bloomNegative float64 // share of a get's bloom probes that ruled a table out
	tables        int     // live SSTables over all ranks
}

const (
	replayCalls  = 20_000 // in-memory layers: calls per timed loop
	replayRanges = 64     // SeekGE ranges per rank (each loads a table index)
	pingPongs    = 20_000
)

// timePerCall runs fn(i) for i in [0, n) and returns the mean ns per call.
func timePerCall(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// replayLayers times the same keys and ranges the run used through each
// layer's public functions: the SSTable reader cache, bloom filters and
// scanner on every rank's device, a MemTable, the LRU cache, the WAL on a
// scratch device, and an mpi ping-pong. iterOpenNs carries each rank's
// DB.NewIterator time, measured before the database closed.
func replayLayers(clusterDir, scratchDir string, sample []sampled, putsPerCommit float64, iterOpenNs []float64) (replayResult, error) {
	rp := replayResult{ns: map[string]float64{}}
	var keys [][]byte
	var ranges []prefixRange
	for _, s := range sample {
		if s.key != nil {
			keys = append(keys, s.key)
			ranges = append(ranges, prefixRange{lo: s.key[:2], hi: []byte{s.key[0], s.key[1] + 1}})
		} else {
			keys = append(keys, s.r.lo)
			ranges = append(ranges, s.r)
		}
	}
	if len(keys) == 0 {
		return rp, fmt.Errorf("replay: the run sampled no keys")
	}

	var getNs, bloomNs, seekNs float64
	var gets, blooms, seeks, negatives int
	for r := 0; r < ranks; r++ {
		dev, err := nvm.Open(deviceDir(clusterDir, r), nvm.DRAM)
		if err != nil {
			return rp, err
		}
		dir := fmt.Sprintf("%s/r%d", dbName, r)
		raw, err := dev.ReadFile(manifest.LogName(dir))
		if err != nil {
			return rp, err
		}
		v, _, err := manifest.Compose(raw)
		if err != nil {
			return rp, err
		}
		rp.tables += len(v.Tables)
		var own [][]byte
		for _, k := range keys {
			if papyruskv.DefaultHash(k, ranks) == r {
				own = append(own, k)
			}
		}
		if len(v.Tables) == 0 || len(own) == 0 {
			continue
		}

		// The probes a get makes: each key against its candidate tables in
		// the program's order, up to the first table that holds it.
		rc := sstable.NewReaderCache(dev, 32<<20)
		filters := map[uint64]*bloom.Filter{}
		type probe struct {
			id  uint64
			key []byte
		}
		var probes []probe
		for _, k := range own {
			for _, id := range candidates(v, k) {
				probes = append(probes, probe{id, k})
				_, _, found, err := rc.Get(dir, id, k, sstable.BinarySearch, true)
				if err != nil {
					return rp, fmt.Errorf("replay ReaderCache.Get: %w", err)
				}
				if filters[id] == nil {
					if filters[id], err = loadFilter(dev, dir, id); err != nil {
						return rp, err
					}
				}
				if found {
					break
				}
			}
		}

		// ReaderCache.Get per probe, warm: the pass above loaded every
		// table's bloom and index.
		var rerr error
		getNs += timePerCall(len(probes), func(i int) {
			if _, _, _, err := rc.Get(dir, probes[i].id, probes[i].key, sstable.BinarySearch, true); err != nil && rerr == nil {
				rerr = err
			}
		}) * float64(len(probes))
		gets += len(probes)
		if rerr != nil {
			return rp, fmt.Errorf("replay ReaderCache.Get: %w", rerr)
		}
		bloomNs += timePerCall(len(probes), func(i int) {
			if !filters[probes[i].id].MayContain(probes[i].key) {
				negatives++
			}
		}) * float64(len(probes))
		blooms += len(probes)

		var ids []uint64
		for _, t := range v.Tables {
			ids = append(ids, t.SSID)
		}
		for i, rg := range ranges {
			if i == replayRanges {
				break
			}
			for _, id := range ids {
				s, err := sstable.NewScanner(dev, dir, id)
				if err != nil {
					return rp, err
				}
				t0 := time.Now()
				err = s.SeekGE(rg.lo)
				seekNs += float64(time.Since(t0))
				s.Close()
				if err != nil {
					return rp, fmt.Errorf("replay Scanner.SeekGE: %w", err)
				}
				seeks++
			}
		}
	}
	rp.ns["sstable.get_ns"] = ratio(getNs, float64(gets))
	rp.ns["bloom.may_contain_ns"] = ratio(bloomNs, float64(blooms))
	rp.bloomNegative = ratio(float64(negatives), float64(blooms))
	rp.ns["sstable.seek_ns"] = ratio(seekNs, float64(seeks))

	val := make([]byte, valueLen)
	mt := memtable.New()
	rp.ns["memtable.put_ns"] = timePerCall(replayCalls, func(i int) {
		mt.Put(memtable.Entry{Key: keys[i%len(keys)], Value: val})
	})
	rp.ns["memtable.get_ns"] = timePerCall(replayCalls, func(i int) { mt.Get(keys[i%len(keys)]) })

	cache := lru.New(benchOptions().LocalCacheCapacity)
	for _, k := range keys {
		cache.Put(k, val, true)
	}
	rp.ns["lru.get_ns"] = timePerCall(replayCalls, func(i int) { cache.Get(keys[i%len(keys)]) })

	if err := replayWAL(rp.ns, scratchDir, keys, val, putsPerCommit); err != nil {
		return rp, err
	}
	rt, err := pingPong()
	if err != nil {
		return rp, err
	}
	rp.ns["mpi.roundtrip_ns"] = rt

	var iter float64
	for _, v := range iterOpenNs {
		iter += v
	}
	rp.ns["core.scan.iterator_open_ns"] = iter / float64(len(iterOpenNs))
	return rp, nil
}

// candidates lists the tables a get of key probes, in the order it probes
// them: L0 tables whose bounds cover the key newest first, then the one
// table of each deeper level whose bounds cover it.
func candidates(v manifest.Version, key []byte) []uint64 {
	var levels [][]manifest.TableMeta
	for _, t := range v.Tables { // ascending by SSID: oldest first
		for int(t.Level) >= len(levels) {
			levels = append(levels, nil)
		}
		levels[t.Level] = append(levels[t.Level], t)
	}
	covers := func(t manifest.TableMeta) bool {
		return bytes.Compare(t.MinKey, key) <= 0 && bytes.Compare(key, t.MaxKey) <= 0
	}
	var ids []uint64
	if len(levels) > 0 {
		for i := len(levels[0]) - 1; i >= 0; i-- {
			if covers(levels[0][i]) {
				ids = append(ids, levels[0][i].SSID)
			}
		}
	}
	for _, run := range levels[min(1, len(levels)):] {
		for _, t := range run { // disjoint: at most one covers the key
			if covers(t) {
				ids = append(ids, t.SSID)
				break
			}
		}
	}
	return ids
}

// loadFilter reads table id's bloom filter from the device.
func loadFilter(dev *nvm.Device, dir string, id uint64) (*bloom.Filter, error) {
	raw, err := dev.ReadFile(sstable.BloomName(dir, id))
	if err != nil {
		return nil, err
	}
	if len(raw) < 4 {
		return nil, fmt.Errorf("replay: short bloom file for table %d", id)
	}
	return bloom.Load(raw[4:]) // past the file's leading CRC32C
}

// replayWAL appends the sampled pairs to a fresh log on a scratch device,
// group-committing after every putsPerCommit appends — the batch the run
// measured; a run that wrote nothing uses a nominal 256.
func replayWAL(ns map[string]float64, scratchDir string, keys [][]byte, val []byte, putsPerCommit float64) error {
	dev, err := nvm.Open(scratchDir, nvm.DRAM)
	if err != nil {
		return err
	}
	l, _, err := wal.Recover(wal.Config{Device: dev, Dir: "replay", Stream: "local"})
	if err != nil {
		return err
	}
	defer l.Close()
	batch := int(math.Round(putsPerCommit))
	if batch < 1 {
		batch = 256
	}
	var appendNs, commitNs time.Duration
	var commits int
	for i := 0; i < replayCalls; i++ {
		t0 := time.Now()
		if err := l.Append(wal.Record{Seq: uint64(i + 1), Key: keys[i%len(keys)], Value: val}); err != nil {
			return fmt.Errorf("replay wal Append: %w", err)
		}
		appendNs += time.Since(t0)
		if (i+1)%batch == 0 || i == replayCalls-1 {
			t0 = time.Now()
			if err := l.GroupCommit(); err != nil {
				return fmt.Errorf("replay wal GroupCommit: %w", err)
			}
			commitNs += time.Since(t0)
			commits++
		}
	}
	ns["wal.append_ns"] = float64(appendNs) / replayCalls
	ns["wal.group_commit_ns"] = float64(commitNs) / float64(commits)
	return nil
}

// pingPong measures an mpi Send/Recv round trip of one pair between two
// ranks of a fresh world with free fabrics, as the benchmark's cluster has.
func pingPong() (float64, error) {
	var rt float64
	payload := make([]byte, pairLen)
	err := mpi.NewWorld(2, mpi.Topology{}).Run(func(c *mpi.Comm) error {
		peer := 1 - c.Rank()
		if c.Rank() == 0 {
			t0 := time.Now()
			for i := 0; i < pingPongs; i++ {
				if err := c.Send(peer, 1, payload); err != nil {
					return err
				}
				if _, err := c.Recv(peer, 1); err != nil {
					return err
				}
			}
			rt = float64(time.Since(t0)) / pingPongs
			return nil
		}
		for i := 0; i < pingPongs; i++ {
			m, err := c.Recv(peer, 1)
			if err != nil {
				return err
			}
			if err := c.Send(peer, 1, m.Data); err != nil {
				return err
			}
		}
		return nil
	})
	return rt, err
}
