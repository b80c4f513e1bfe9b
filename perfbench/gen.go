package main

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"sort"

	"papyruskv/internal/workload"
)

const (
	keyLen   = 16
	valueLen = 128
	pairLen  = keyLen + valueLen

	// zipfS is the skew of update_zipf's key choice (DINOMO's skewed mixes).
	zipfS = 1.1
	// readPct is update_zipf's get share: the paper's Fig 9 update-heavy
	// 50/50 mix.
	readPct = 50
)

// streamSeed derives an independent generator seed for one stream (a rank's
// preload keys, its ingest keys, its op choices) from the run's seed.
func streamSeed(seed, stream int64) int64 { return seed*1_000_003 + stream }

// Stream numbers: one per rank within each purpose.
const (
	streamPreload = 0
	streamIngest  = 100
	streamOps     = 200
	streamLayout  = 300
	streamSample  = 400
)

// genKeys returns n keys from the stream's uniform generator, skipping any
// key already in seen (and adding the rest to it), so key sets drawn for
// different ranks never overlap.
func genKeys(seed int64, n int, seen map[string]struct{}) [][]byte {
	g := workload.NewKeyGen(seed, keyLen)
	out := make([][]byte, 0, n)
	for len(out) < n {
		k := g.Next()
		if _, dup := seen[string(k)]; dup {
			continue
		}
		seen[string(k)] = struct{}{}
		out = append(out, k)
	}
	return out
}

// putValue fills dst (valueLen bytes) with the value model: the version in
// the first four bytes, then filler derived from the key, so a value read
// back can be checked exactly without storing it.
func putValue(dst, key []byte, version uint32) {
	binary.LittleEndian.PutUint32(dst, version)
	h := fnv.New64a()
	h.Write(key)
	x := h.Sum64()
	for i := 4; i < len(dst); i++ {
		x = x*6364136223846793005 + 1442695040888963407
		dst[i] = byte(x >> 56)
	}
}

// rankedKeys orders keys for Zipfian choice so that Zipf rank i is local to
// the client when i%3 == 1 and remote otherwise (until one side runs out):
// about 32% of accesses at s = 1.1 are local. Fixing the pattern keeps the
// mix the same for every seed; left to chance, the owner of the top key
// alone (13% of accesses) would swing it. And a local op (about 1 us, a
// MemTable hit) and a remote one (about 8 us, an RPC) form two modes: with
// half the accesses local the median sits in the gap between them, where a
// one-point change in the mix moves it several-fold.
func rankedKeys(rng *rand.Rand, keys [][]byte, local func([]byte) bool) [][]byte {
	var loc, rem [][]byte
	for _, k := range keys {
		if local(k) {
			loc = append(loc, k)
		} else {
			rem = append(rem, k)
		}
	}
	rng.Shuffle(len(loc), func(i, j int) { loc[i], loc[j] = loc[j], loc[i] })
	rng.Shuffle(len(rem), func(i, j int) { rem[i], rem[j] = rem[j], rem[i] })
	out := make([][]byte, 0, len(keys))
	for len(loc) > 0 || len(rem) > 0 {
		if len(out)%3 == 1 && len(loc) > 0 || len(rem) == 0 {
			out, loc = append(out, loc[0]), loc[1:]
		} else {
			out, rem = append(out, rem[0]), rem[1:]
		}
	}
	return out
}

// op is one operation of a client's stream.
type op struct {
	get bool
	idx int // index into the client's key list
}

// opStream draws a client's operations: the key index from a uniform or a
// Zipfian distribution, and get versus put by readPct.
type opStream struct {
	rng     *rand.Rand
	zipf    *rand.Zipf // nil: uniform
	n       int
	readPct int
}

func newUniformStream(seed int64, n, readPct int) *opStream {
	return &opStream{rng: rand.New(rand.NewSource(seed)), n: n, readPct: readPct}
}

func newZipfStream(seed int64, n, readPct int) *opStream {
	rng := rand.New(rand.NewSource(seed))
	return &opStream{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(n-1)), n: n, readPct: readPct}
}

func (s *opStream) next() op {
	var idx int
	if s.zipf != nil {
		idx = int(s.zipf.Uint64())
	} else {
		idx = s.rng.Intn(s.n)
	}
	return op{get: s.rng.Intn(100) < s.readPct, idx: idx}
}

// prefixRange is one scan_short op: every key starting with a two-character
// prefix, [lo, hi), with the count the generated key set puts there.
type prefixRange struct {
	lo, hi []byte
	want   int
}

// prefixRanges returns the two-character prefix ranges that hold at least
// one of keys, sorted, with their exact pair counts.
func prefixRanges(keys [][]byte) []prefixRange {
	counts := map[string]int{}
	for _, k := range keys {
		counts[string(k[:2])]++
	}
	out := make([]prefixRange, 0, len(counts))
	for p, n := range counts {
		lo := []byte(p)
		hi := []byte{lo[0], lo[1] + 1}
		out = append(out, prefixRange{lo: lo, hi: hi, want: n})
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].lo, out[j].lo) < 0 })
	return out
}
