package main

import (
	"math"
	"math/bits"
	"sort"
)

// subBits sets the histogram's resolution: 2^subBits linear sub-buckets per
// power of two, so a reported quantile is within 0.05% of a recorded value
// while the memory stays fixed however many samples a run records. Fixed
// memory matters because mem_avg_mb measures the whole process heap.
const subBits = 10

// maxShift caps the recorded range at 2^(maxShift+subBits+1) ns, about 73
// minutes; longer samples land in the last bucket.
const maxShift = 31

// hist is a log-linear histogram of durations in nanoseconds. It is not
// safe for concurrent use: each client records into its own and the
// workload merges them.
type hist struct {
	counts []uint64
	n      uint64
}

func newHist() *hist {
	return &hist{counts: make([]uint64, (maxShift+2)<<subBits)}
}

func bucketOf(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	if v < 1<<subBits {
		return int(v)
	}
	shift := bits.Len64(v) - subBits - 1
	if shift > maxShift {
		return (maxShift+2)<<subBits - 1
	}
	return (shift+1)<<subBits + int(v>>uint(shift)) - 1<<subBits
}

// bucketMid returns the middle of bucket i's value range.
func bucketMid(i int) float64 {
	if i < 1<<subBits {
		return float64(i)
	}
	shift := i>>subBits - 1
	lo := uint64(i&(1<<subBits-1)+1<<subBits) << uint(shift)
	return float64(lo) + float64(uint64(1)<<uint(shift)-1)/2
}

func (h *hist) add(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank p-th percentile (0 < p <= 100) in ns,
// or NaN for an empty histogram.
func (h *hist) quantile(p float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(len(h.counts) - 1)
}

// tailPercentiles are the candidates for a summary's tail, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// supports reports whether n samples leave at least ten beyond the p-th
// percentile, the least a tail figure needs to mean anything.
func supports(n uint64, p float64) bool {
	return float64(n)*(100-p)/100 >= 10-1e-9 // 100-99.9 is not exact in binary
}

// summary is how every timing is reported: the median, the highest
// percentile the sample supports, and the sample count.
type summary struct {
	N       uint64
	P50     float64 // ns
	TailPct float64 // 0 when the sample supports no tail at all
	Tail    float64 // ns
}

func (h *hist) summary() summary {
	s := summary{N: h.n, P50: h.quantile(50)}
	for _, p := range tailPercentiles {
		if supports(h.n, p) {
			s.TailPct, s.Tail = p, h.quantile(p)
			break
		}
	}
	return s
}

// p99 returns the 99th percentile when the sample supports it.
func (h *hist) p99() (float64, bool) {
	if !supports(h.n, 99) {
		return 0, false
	}
	return h.quantile(99), true
}

// windowedQuantile returns the median over windows of each window's p-th
// percentile when every window supports p, otherwise the p-th percentile of
// all samples; ok is false when even all samples do not support p.
func windowedQuantile(ws []*hist, p float64) (v float64, ok bool) {
	all := newHist()
	per := make([]float64, 0, len(ws))
	for _, h := range ws {
		all.merge(h)
		if supports(h.n, p) {
			per = append(per, h.quantile(p))
		}
	}
	if !supports(all.n, p) {
		return 0, false
	}
	if len(per) == len(ws) {
		return median(per), true
	}
	return all.quantile(p), true
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
