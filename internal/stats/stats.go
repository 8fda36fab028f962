// Package stats provides the small set of descriptive statistics the
// benchmark harness reports: mean, standard deviation, min/max,
// percentiles over int64 samples (cycles or nanoseconds), and the
// log-linear bucket layout of the online latency histograms in
// internal/obs.
//
//countnet:deterministic
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Summary describes a sample set.
type Summary struct {
	N      int
	Min    int64
	Max    int64
	Mean   float64
	Stddev float64
	P50    int64
	P90    int64
	P99    int64
}

// Summarize computes a Summary. An empty input yields a zero Summary.
func Summarize(samples []int64) Summary {
	var s Summary
	s.N = len(samples)
	if s.N == 0 {
		return s
	}
	sorted := make([]int64, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	var sum, sumSq float64
	for _, v := range sorted {
		f := float64(v)
		sum += f
		sumSq += f * f
	}
	n := float64(s.N)
	s.Mean = sum / n
	variance := sumSq/n - s.Mean*s.Mean
	if variance > 0 {
		s.Stddev = math.Sqrt(variance)
	}
	s.P50 = Percentile(sorted, 50)
	s.P90 = Percentile(sorted, 90)
	s.P99 = Percentile(sorted, 99)
	return s
}

// Percentile returns the p-th percentile (nearest-rank) of an ascending
// sorted sample. p is clamped to [0, 100]; a NaN p is treated as 0 (every
// comparison against NaN is false, so without the explicit check it would
// fall through to an undefined float-to-int conversion).
func Percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	if math.IsNaN(p) || p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// String renders the summary in one line.
func (s Summary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d min=%d mean=%.1f p50=%d p90=%d p99=%d max=%d sd=%.1f",
		s.N, s.Min, s.Mean, s.P50, s.P90, s.P99, s.Max, s.Stddev)
}

// Log-linear (HDR-style) bucket layout shared with the online latency
// histograms in internal/obs: values below 2^subBits get exact unit
// buckets; above that, each power-of-two range is split into 2^subBits
// equal sub-buckets, bounding the relative quantization error by
// 2^-subBits while covering the whole non-negative int64 range in
// (64-subBits)*2^subBits buckets.

// NumLogBuckets returns the bucket count of the log-linear layout.
func NumLogBuckets(subBits uint) int {
	return (64 - int(subBits)) << subBits
}

// LogBucket returns the bucket index of v in the log-linear layout.
// Negative values land in bucket 0.
func LogBucket(v int64, subBits uint) int {
	if v <= 0 {
		return 0
	}
	sub := int64(1) << subBits
	if v < sub {
		return int(v)
	}
	msb := bits.Len64(uint64(v)) - 1
	shift := uint(msb) - subBits
	return int(sub + int64(shift)*sub + (v>>shift - sub))
}

// LogBucketLower returns the inclusive lower bound of bucket i — the
// inverse of LogBucket on bucket boundaries.
func LogBucketLower(i int, subBits uint) int64 {
	sub := int64(1) << subBits
	if int64(i) < sub {
		return int64(i)
	}
	off := int64(i) - sub
	shift := uint(off / sub)
	return (sub + off%sub) << shift
}
