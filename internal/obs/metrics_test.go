package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	g := r.Gauge("depth")
	c.Inc()
	c.Add(4)
	g.Set(5)
	if c.Value() != 5 || g.Value() != 5 {
		t.Fatalf("counter %d gauge %d, want 5 and 5", c.Value(), g.Value())
	}
	// Re-registration under the same name returns the same instance.
	if r.Counter("ops") != c {
		t.Fatal("duplicate Counter registration created a new instance")
	}
}

func TestMinMaxConcurrent(t *testing.T) {
	m := NewMinMax()
	if _, ok := m.Min(); ok {
		t.Fatal("empty MinMax claims an observation")
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Observe(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	lo, _ := m.Min()
	hi, _ := m.Max()
	if lo != 0 || hi != 7999 || m.Count() != 8000 {
		t.Fatalf("min=%d max=%d n=%d, want 0, 7999, 8000", lo, hi, m.Count())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d, want 1000", h.Count())
	}
	if mean := h.Mean(); math.Abs(mean-500.5) > 0.001 {
		t.Fatalf("mean %f, want 500.5", mean)
	}
	// Log-bucket quantiles are lower bounds within 2^-5 relative error.
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}} {
		got := h.Quantile(tc.q)
		if got > tc.want || float64(got) < float64(tc.want)*(1-1.0/32)-1 {
			t.Fatalf("q%.2f = %d, want within 3.2%% below %d", tc.q, got, tc.want)
		}
	}
	if h.Quantile(math.NaN()) != h.Quantile(0) {
		t.Fatal("NaN quantile should clamp to 0")
	}
	h.Observe(-5) // counts as 0
	if h.Quantile(0) != 0 {
		t.Fatalf("q0 after negative observe = %d, want 0", h.Quantile(0))
	}
	if h.Count() != 1001 {
		t.Fatalf("count %d after 1001 samples", h.Count())
	}

	// Count and Quantile racing Observe: clean under -race, and the
	// quantile stays inside the observed range while the buckets grow.
	c := NewHistogram()
	const writers, per = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= per; i++ {
				c.Observe(i)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for c.Count() < writers*per {
			if q := c.Quantile(0.99); q < 0 || q > per {
				t.Errorf("concurrent q99 = %d, outside [0, %d]", q, per)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if c.Count() != writers*per {
		t.Fatalf("count %d, want %d", c.Count(), writers*per)
	}
	if mean := c.Mean(); math.Abs(mean-(per+1)/2.0) > 1e-9 {
		t.Fatalf("mean %f, want %f", mean, (per+1)/2.0)
	}
}

func TestRatioEstimator(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("tog")
	r := reg.RatioOf("avg_c2c1", h, 1000)
	if !math.IsInf(r.Value(), 1) {
		t.Fatal("ratio before observations should be +Inf")
	}
	for i := 0; i < 10; i++ {
		h.Observe(400 + 200*int64(i%2)) // 400 and 600 alternately
	}
	if got := r.Tog(); got != 500 || got != h.Mean() {
		t.Fatalf("Tog = %f, want 500, the histogram mean %f", got, h.Mean())
	}
	if got := r.Value(); math.Abs(got-3.0) > 1e-12 {
		t.Fatalf("(Tog+W)/Tog = %f, want 3.0", got)
	}
	if r.W() != 1000 {
		t.Fatalf("W = %f, want 1000", r.W())
	}
	// Ratio returns the registered view, not a new one, and a second
	// RatioOf under the same name keeps the first binding.
	if reg.Ratio("avg_c2c1", 1000) != r || reg.RatioOf("avg_c2c1", NewHistogram(), 5) != r {
		t.Fatal("re-registration replaced the registered ratio view")
	}
	// An unregistered name gets a view of an empty histogram.
	if fresh := reg.Ratio("unbound", 7); fresh.Tog() != 0 || !math.IsInf(fresh.Value(), 1) || fresh.W() != 7 {
		t.Fatalf("unbound view Tog=%f Value=%f W=%f, want 0, +Inf, 7", fresh.Tog(), fresh.Value(), fresh.W())
	}
}

func TestRegistryWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_ops").Add(3)
	r.Gauge("a_depth").Set(2)
	r.GaugeFunc("c_ratio", func() float64 { return 1.5 })
	mm := r.MinMax("wire")
	mm.Observe(10)
	mm.Observe(90)
	r.Histogram("lat").Observe(64)
	tog := r.Histogram("tog")
	r.RatioOf("avg_c2c1", tog, 100)
	tog.Observe(50)
	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{
		"a_depth 2", "b_ops 3", "c_ratio 1.5",
		"wire_min 10", "wire_max 90", "wire_count 2",
		"lat_count 1", "lat_p99 64",
		"avg_c2c1_tog 50", "avg_c2c1 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteText output missing %q:\n%s", want, out)
		}
	}
	// Sorted by name: a_depth before b_ops before c_ratio.
	if strings.Index(out, "a_depth") > strings.Index(out, "b_ops") ||
		strings.Index(out, "b_ops") > strings.Index(out, "c_ratio") {
		t.Fatalf("WriteText not sorted:\n%s", out)
	}
}
