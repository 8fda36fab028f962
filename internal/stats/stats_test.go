package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.String() != "n=0" {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]int64{4, 1, 3, 2, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Mean-3) > 1e-9 {
		t.Errorf("mean = %f", s.Mean)
	}
	if math.Abs(s.Stddev-math.Sqrt(2)) > 1e-9 {
		t.Errorf("stddev = %f", s.Stddev)
	}
	if s.P50 != 3 {
		t.Errorf("p50 = %d", s.P50)
	}
	if s.P99 != 5 {
		t.Errorf("p99 = %d", s.P99)
	}
	if !strings.Contains(s.String(), "mean=3.0") {
		t.Errorf("String = %q", s.String())
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	in := []int64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("input mutated: %v", in)
	}
}

func TestPercentileEdges(t *testing.T) {
	sorted := []int64{10, 20, 30, 40}
	cases := []struct {
		p    float64
		want int64
	}{{0, 10}, {25, 10}, {50, 20}, {75, 30}, {100, 40}, {-5, 10}, {200, 40}}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile not zero")
	}
}

func TestSummaryInvariantsQuick(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]int64, len(raw))
		for i, v := range raw {
			samples[i] = int64(v)
		}
		s := Summarize(samples)
		return s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P99 &&
			s.P99 <= s.Max && float64(s.Min) <= s.Mean && s.Mean <= float64(s.Max) &&
			s.Stddev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sorted []int64
		p      float64
		want   int64
	}{
		{"empty", nil, 50, 0},
		{"empty-nan", nil, math.NaN(), 0},
		{"single-p0", []int64{7}, 0, 7},
		{"single-p50", []int64{7}, 50, 7},
		{"single-p100", []int64{7}, 100, 7},
		{"single-nan", []int64{7}, math.NaN(), 7},
		{"nan-clamps-low", []int64{1, 2, 3}, math.NaN(), 1},
		{"negative-clamps", []int64{1, 2, 3}, -10, 1},
		{"over-clamps", []int64{1, 2, 3}, 250, 3},
	} {
		if got := Percentile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("%s: Percentile(%v, %v) = %d, want %d", tc.name, tc.sorted, tc.p, got, tc.want)
		}
	}
}

// TestLogBucketBoundaries locks down the log-linear bucket layout used by
// the online latency histograms in internal/obs.
func TestLogBucketBoundaries(t *testing.T) {
	const subBits = 5
	sub := int64(1) << subBits
	for _, tc := range []struct {
		v    int64
		want int
	}{
		{-3, 0},
		{0, 0},
		{1, 1},
		{sub - 1, int(sub - 1)},     // last exact bucket
		{sub, int(sub)},             // first log bucket
		{2*sub - 1, int(2*sub - 1)}, // still unit-wide at shift 0
		{2 * sub, int(2 * sub)},     // shift 1 begins
		{2*sub + 1, int(2 * sub)},   // width-2 bucket swallows the odd value
		{4 * sub, int(3 * sub)},     // shift 2 begins
		{math.MaxInt64, NumLogBuckets(subBits) - 1},
	} {
		if got := LogBucket(tc.v, subBits); got != tc.want {
			t.Errorf("LogBucket(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
	// Boundary inversion: every bucket's lower bound maps back to itself,
	// and lower bounds are strictly increasing.
	prev := int64(-1)
	for i := 0; i < NumLogBuckets(subBits); i++ {
		lo := LogBucketLower(i, subBits)
		if lo <= prev {
			t.Fatalf("bucket %d lower bound %d not increasing (prev %d)", i, lo, prev)
		}
		prev = lo
		if got := LogBucket(lo, subBits); got != i {
			t.Fatalf("LogBucket(LogBucketLower(%d)) = %d", i, got)
		}
	}
}

func TestLogBucketMonotone(t *testing.T) {
	const subBits = 5
	prev := 0
	for v := int64(0); v < 1<<14; v++ {
		b := LogBucket(v, subBits)
		if b < prev {
			t.Fatalf("LogBucket not monotone at %d: %d < %d", v, b, prev)
		}
		prev = b
	}
}
