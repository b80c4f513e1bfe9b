package main

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func TestKeysDeterministicAndDisjoint(t *testing.T) {
	a := genKeys(streamSeed(7, 0), 500, map[string]struct{}{})
	b := genKeys(streamSeed(7, 0), 500, map[string]struct{}{})
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("key %d differs between same-seed runs: %q vs %q", i, a[i], b[i])
		}
	}
	seen := map[string]struct{}{}
	genKeys(streamSeed(7, 0), 500, seen)
	c := genKeys(streamSeed(7, 0), 500, seen) // same stream again: all duplicates skipped
	for _, k := range c {
		for _, x := range a {
			if bytes.Equal(k, x) {
				t.Fatalf("key %q drawn twice despite the seen set", k)
			}
		}
	}
}

func TestOpStreamDeterministic(t *testing.T) {
	for _, mk := range []func() *opStream{
		func() *opStream { return newUniformStream(3, 1000, readPct) },
		func() *opStream { return newZipfStream(3, 1000, readPct) },
	} {
		s1, s2 := mk(), mk()
		gets := 0
		for i := 0; i < 10000; i++ {
			o1, o2 := s1.next(), s2.next()
			if o1 != o2 {
				t.Fatalf("op %d differs between same-seed streams: %+v vs %+v", i, o1, o2)
			}
			if o1.get {
				gets++
			}
		}
		if gets < 4700 || gets > 5300 {
			t.Fatalf("get share %d/10000, want about %d%%", gets, readPct)
		}
	}
}

// TestZipfSkew checks the share of draws landing on the top 1% of keys
// against the exact Zipf mass P(k) ∝ (1+k)^-s.
func TestZipfSkew(t *testing.T) {
	const n, draws = 100_000, 400_000
	var top, all float64
	for k := 0; k < n; k++ {
		p := math.Pow(float64(1+k), -zipfS)
		all += p
		if k < n/100 {
			top += p
		}
	}
	want := top / all
	s := newZipfStream(11, n, 0)
	hits := 0
	for i := 0; i < draws; i++ {
		if s.next().idx < n/100 {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("top-1%% share %.4f, want %.4f", got, want)
	}
	if got < 0.7 {
		t.Fatalf("top-1%% share %.4f: not skewed", got)
	}
}

func TestRankedKeysFixLocalPattern(t *testing.T) {
	keys := genKeys(5, 1000, map[string]struct{}{})
	local := func(k []byte) bool { return k[0]%2 == 0 }
	r := rankedKeys(rand.New(rand.NewSource(5)), keys, local)
	if len(r) != len(keys) {
		t.Fatalf("ranked %d keys, want %d", len(r), len(keys))
	}
	seen := map[string]bool{}
	for i, k := range r {
		if seen[string(k)] {
			t.Fatalf("key %q ranked twice", k)
		}
		seen[string(k)] = true
		if i < 300 && local(k) != (i%3 == 1) {
			t.Fatalf("rank %d: local=%v, want %v", i, local(k), i%3 == 1)
		}
	}
}

func TestPrefixRangesCountKeys(t *testing.T) {
	keys := genKeys(9, 20_000, map[string]struct{}{})
	rs := prefixRanges(keys)
	total := 0
	for i, r := range rs {
		if i > 0 && bytes.Compare(rs[i-1].hi, r.lo) > 0 {
			t.Fatalf("ranges overlap: %q..%q then %q", rs[i-1].lo, rs[i-1].hi, r.lo)
		}
		n := 0
		for _, k := range keys {
			if bytes.Compare(k, r.lo) >= 0 && bytes.Compare(k, r.hi) < 0 {
				n++
			}
		}
		if n != r.want {
			t.Fatalf("range %q: %d keys inside, want %d", r.lo, n, r.want)
		}
		total += r.want
	}
	if total != len(keys) {
		t.Fatalf("ranges cover %d keys, want %d", total, len(keys))
	}
}
