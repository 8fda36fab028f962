package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), NaN when xs is empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the same rule
// as Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so the spreads this benchmark prints match the ones computed
// from its output elsewhere. Fewer than two values give that value twice.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// latHist is an exact latency distribution over whole nanoseconds:
// one counter per nanosecond below latHistLimit, sorted overflow above
// it. It fills in O(1) per sample and answers percentiles in one pass,
// so a round of a million calls needs no sort.
type latHist struct {
	counts []int32
	over   []int64
	n      int
}

// latHistLimit covers every sub-65µs call exactly; slower calls are rare
// enough to keep and sort individually.
const latHistLimit = 1 << 16

func newLatHist() *latHist { return &latHist{counts: make([]int32, latHistLimit)} }

func (h *latHist) reset() {
	clear(h.counts)
	h.over = h.over[:0]
	h.n = 0
}

func (h *latHist) add(ns int64) {
	h.n++
	if ns < 0 {
		ns = 0
	}
	if ns < latHistLimit {
		h.counts[ns]++
		return
	}
	h.over = append(h.over, ns)
}

// percentile returns the nearest-rank p-th percentile (p in [0, 100]) of
// the recorded samples in whole nanoseconds, 0 when there are none.
func (h *latHist) percentile(p float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(h.n)))
	rank = min(max(rank, 1), h.n)
	seen := 0
	for v, c := range h.counts {
		if seen+int(c) >= rank {
			return int64(v)
		}
		seen += int(c)
	}
	sort.Slice(h.over, func(i, j int) bool { return h.over[i] < h.over[j] })
	return h.over[rank-seen-1]
}

// beyond returns how many samples read more than v: the sample count a
// reported percentile v rests on.
func (h *latHist) beyond(v int64) int {
	if v >= latHistLimit {
		k := 0
		for _, o := range h.over {
			if o > v {
				k++
			}
		}
		return k
	}
	k := len(h.over)
	for _, c := range h.counts[v+1:] {
		k += int(c)
	}
	return k
}

// verdict compares two sets of runs of one metric. bound is the share of
// the prior median by which the metric may worsen; better is "higher" or
// "lower". A change inside the bound is "same". When either side's own
// spread exceeds the bound the medians cannot resolve a change of that
// size — "unresolved" — unless every current run beats (or loses to)
// every prior run.
func verdict(prior, cur []float64, bound float64, better string) string {
	pm, cm := median(prior), median(cur)
	sign := 1.0 // positive delta = better
	if better == "lower" {
		sign = -1
	}
	delta := sign * (cm - pm) / math.Abs(pm)
	if spread(prior) > bound || spread(cur) > bound {
		switch {
		case allBeyond(prior, cur, sign):
			return "better"
		case allBeyond(cur, prior, sign):
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case delta < -bound:
		return "worse"
	case delta > bound:
		return "better"
	default:
		return "same"
	}
}

// allBeyond reports whether every value of b is better than every value
// of a (sign +1: higher is better, -1: lower is better). Ties count for
// neither side, and fewer than three runs a side never qualify.
func allBeyond(a, b []float64, sign float64) bool {
	if len(a) < 3 || len(b) < 3 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				return false
			}
		}
	}
	return true
}
