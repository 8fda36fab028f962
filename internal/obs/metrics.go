package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"countnet/internal/core"
	"countnet/internal/stats"
)

// histSubBits sets the log-linear histogram resolution: 2^5 = 32
// sub-buckets per power of two, a ≤3.2% relative quantization error.
const histSubBits = 5

// Counter is a monotone atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous integer level (queue depth, tokens in flight).
type Gauge struct{ v atomic.Int64 }

// Set stores the level.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the level by d (use negative d to decrement).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// MinMax tracks the extremes of an observed stream — per-wire traversal
// times, so the run's empirical c1/c2 is readable at runtime. Use NewMinMax
// (or Registry.MinMax); the zero value is not ready.
type MinMax struct {
	min atomic.Int64
	max atomic.Int64
	n   atomic.Int64
}

// NewMinMax returns an empty tracker with sentinel extremes, so concurrent
// first observations need no special case.
func NewMinMax() *MinMax {
	m := &MinMax{}
	m.min.Store(math.MaxInt64)
	m.max.Store(math.MinInt64)
	return m
}

// Observe folds v into the extremes with lock-free CAS races.
func (m *MinMax) Observe(v int64) {
	m.n.Add(1)
	for {
		cur := m.min.Load()
		if v >= cur || m.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := m.max.Load()
		if v <= cur || m.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Min returns the smallest observation; ok is false before any Observe.
func (m *MinMax) Min() (v int64, ok bool) { return m.min.Load(), m.n.Load() > 0 }

// Max returns the largest observation; ok is false before any Observe.
func (m *MinMax) Max() (v int64, ok bool) { return m.max.Load(), m.n.Load() > 0 }

// Count returns the number of observations.
func (m *MinMax) Count() int64 { return m.n.Load() }

// Histogram is a concurrent log-bucketed (HDR-style) latency histogram
// over non-negative int64 samples, using the bucket boundaries of
// stats.LogBucket. Observe is wait-free (one atomic add to the bucket and
// one to the sum); the count is the sum of the buckets, and quantiles are
// estimated from bucket lower bounds.
type Histogram struct {
	buckets []atomic.Int64
	sum     atomic.Int64
}

// NewHistogram returns an empty histogram covering all of int64.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make([]atomic.Int64, stats.NumLogBuckets(histSubBits))}
}

// Observe tallies one sample; negative samples count as zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[stats.LogBucket(v, histSubBits)].Add(1)
	h.sum.Add(v)
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Mean returns the sample mean, 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile estimates the q-th quantile (q in [0,1], clamped; NaN treated
// as 0) as the lower bound of the bucket holding the rank, 0 when empty.
// The rank comes from one pass over the buckets and the lookup from a
// second; buckets only grow, so the second pass always reaches the rank.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	if math.IsNaN(q) || q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return stats.LogBucketLower(i, histSubBits)
		}
	}
	return stats.LogBucketLower(len(h.buckets)-1, histSubBits)
}

// Ratio is a read-only view of the paper's Figure 7 measure (Tog + W)/Tog
// over a toggle-wait histogram: Tog is the histogram's mean wait, so an
// engine records each wait once, in the histogram, and Value reports the
// live average ratio for the configured effective W.
type Ratio struct {
	tog *Histogram
	w   float64
}

// Tog returns the average balancer wait so far, 0 before any observation.
func (r *Ratio) Tog() float64 { return r.tog.Mean() }

// W returns the configured effective per-node delay.
func (r *Ratio) W() float64 { return r.w }

// Value returns the live (Tog+W)/Tog estimate (+Inf before the first
// observation, matching core.AvgRatio's convention for Tog = 0).
func (r *Ratio) Value() float64 { return core.AvgRatio(r.Tog(), r.w) }

// metric is one named registry entry.
type metric struct {
	name  string
	write func(w io.Writer, name string)
}

// Registry is a process-local metrics registry: engines register named
// counters, gauges, min/max trackers, histograms, and ratio views at
// setup time, keep the returned pointers for wait-free hot-path updates,
// and the registry renders a plain-text snapshot on demand (the -metrics
// endpoint and the CLIs' end-of-run dumps).
type Registry struct {
	mu     sync.Mutex
	byName map[string]any
	items  []metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]any)}
}

// register files the instance under name, returning an existing instance
// of the same type when the name is already taken (so idempotent engine
// setup is safe).
func register[T any](r *Registry, name string, v T, write func(w io.Writer, name string)) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[name]; ok {
		if t, ok := prev.(T); ok {
			return t
		}
		panic(fmt.Sprintf("obs: metric %q re-registered with a different type", name))
	}
	r.byName[name] = v
	r.items = append(r.items, metric{name: name, write: write})
	return v
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	return register(r, name, c, func(w io.Writer, name string) {
		fmt.Fprintf(w, "%s %d\n", name, c.Value())
	})
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	g := &Gauge{}
	return register(r, name, g, func(w io.Writer, name string) {
		fmt.Fprintf(w, "%s %d\n", name, g.Value())
	})
}

// GaugeFunc registers a computed gauge rendered by calling fn at snapshot
// time.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	register(r, name, fn, func(w io.Writer, name string) {
		fmt.Fprintf(w, "%s %g\n", name, fn())
	})
}

// MinMax returns the named min/max tracker, creating it if needed.
func (r *Registry) MinMax(name string) *MinMax {
	m := NewMinMax()
	return register(r, name, m, func(w io.Writer, name string) {
		if lo, ok := m.Min(); ok {
			hi, _ := m.Max()
			fmt.Fprintf(w, "%s_min %d\n%s_max %d\n%s_count %d\n", name, lo, name, hi, name, m.Count())
		} else {
			fmt.Fprintf(w, "%s_count 0\n", name)
		}
	})
}

// Histogram returns the named latency histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	h := NewHistogram()
	return register(r, name, h, func(w io.Writer, name string) {
		fmt.Fprintf(w, "%s_count %d\n%s_mean %.1f\n%s_p50 %d\n%s_p90 %d\n%s_p99 %d\n",
			name, h.Count(), name, h.Mean(),
			name, h.Quantile(0.50), name, h.Quantile(0.90), name, h.Quantile(0.99))
	})
}

// RatioOf registers under name the (Tog+W)/Tog view of the toggle-wait
// histogram tog for effective delay w (in the engine's time unit). When
// the name is already taken it returns the registered view, whatever
// histogram that view reads.
func (r *Registry) RatioOf(name string, tog *Histogram, w float64) *Ratio {
	rt := &Ratio{tog: tog, w: w}
	return register(r, name, rt, func(wr io.Writer, name string) {
		fmt.Fprintf(wr, "%s_tog %.1f\n%s_w %g\n%s %g\n", name, rt.Tog(), name, rt.W(), name, rt.Value())
	})
}

// Ratio returns the view registered under name. A name nobody has
// registered gets a view of a fresh, empty histogram for effective delay
// w, so it reads Tog 0 and Value +Inf.
func (r *Registry) Ratio(name string, w float64) *Ratio {
	return r.RatioOf(name, NewHistogram(), w)
}

// WriteText renders every metric as plain "name value" lines, sorted by
// name for stable output.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	items := make([]metric, len(r.items))
	copy(items, r.items)
	r.mu.Unlock()
	sort.Slice(items, func(i, j int) bool { return items[i].name < items[j].name })
	for _, it := range items {
		it.write(w, it.name)
	}
}

// Handler serves the registry as a plain-text HTTP endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		r.WriteText(w)
	})
}
