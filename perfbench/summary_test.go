package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestBucketsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		v := rng.Int63n(1 << uint(rng.Intn(40)+1))
		mid := bucketMid(bucketOf(v))
		if math.Abs(mid-float64(v)) > float64(v)/(1<<subBits)+0.5 {
			t.Fatalf("value %d maps to bucket middle %.1f", v, mid)
		}
	}
	for i := 1; i < len(newHist().counts); i++ {
		if bucketMid(i) <= bucketMid(i-1) {
			t.Fatalf("bucket %d middle %.1f not above bucket %d's %.1f", i, bucketMid(i), i-1, bucketMid(i-1))
		}
	}
}

func TestQuantileMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := newHist()
	var xs []float64
	for i := 0; i < 50000; i++ {
		v := int64(rng.ExpFloat64() * 40000)
		h.add(v)
		xs = append(xs, float64(v))
	}
	sort.Float64s(xs)
	for _, p := range []float64{50, 90, 99, 99.9} {
		exact := xs[int(math.Ceil(p/100*float64(len(xs))))-1]
		if got := h.quantile(p); math.Abs(got-exact) > exact*0.001+1 {
			t.Errorf("p%v = %.1f, exact %.1f", p, got, exact)
		}
	}
}

func TestSummaryTailNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		tail float64
	}{{5, 0}, {20, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}, {100000, 99.99}} {
		h := newHist()
		for i := 0; i < tc.n; i++ {
			h.add(int64(i))
		}
		s := h.summary()
		if s.N != uint64(tc.n) || s.TailPct != tc.tail {
			t.Errorf("n=%d: N=%d tail p%v, want p%v", tc.n, s.N, s.TailPct, tc.tail)
		}
		if _, ok := h.p99(); ok != (tc.n >= 1000) {
			t.Errorf("n=%d: p99 supported=%v", tc.n, ok)
		}
	}
	other := newHist()
	other.add(7)
	h := newHist()
	h.merge(other)
	if h.n != 1 || h.quantile(50) != 7 {
		t.Fatalf("merge: n=%d p50=%v", h.n, h.quantile(50))
	}
}
