// Package schedule executes balancing networks under explicit timing
// schedules (Definition 2.2 of the paper): each token k enters the network
// at a chosen time Q(k,1) and traverses each link in a chosen time within
// [c1, c2]; balancer transitions are instantaneous. The engine is fully
// deterministic, which makes it possible to script the adversarial
// executions of Section 4 exactly and to property-test the Section 3
// theorems (see scenarios.go and the package tests).
//
//countnet:deterministic
package schedule

import (
	"container/heap"
	"fmt"

	"countnet/internal/lincheck"
	"countnet/internal/obs"
	"countnet/internal/topo"
)

// Arrival schedules one token: it enters the network at input port Input and
// transitions its input node at time Time (= Q(k, 1)).
type Arrival struct {
	Time  int64
	Input int
}

// Delays chooses the traversal time of each link for each token. Link is
// called with the 1-based index of the link the token is about to traverse:
// link g connects layer g to layer g+1 (link Depth() leads to the counter).
// Returned delays must be positive; the minimum over all calls plays the
// role of c1 and the maximum of c2.
type Delays interface {
	Link(tok, link int) int64
}

// DelayFunc adapts a function to the Delays interface.
type DelayFunc func(tok, link int) int64

// Link implements Delays.
func (f DelayFunc) Link(tok, link int) int64 { return f(tok, link) }

// Constant returns Delays taking exactly d on every link (c1 == c2 == d).
//
//countnet:allow apivet -- delay fixture shared by the tests of three packages: root bench_test.go, histvar and schedule
func Constant(d int64) Delays {
	return DelayFunc(func(int, int) int64 { return d })
}

// PerToken returns Delays where token k takes d[k] on every link: the
// slow-token/fast-token schedules of Section 4.
func PerToken(d []int64) Delays {
	return DelayFunc(func(tok, _ int) int64 { return d[tok] })
}

// UniformRandom returns deterministic pseudo-random Delays uniform over
// [c1, c2], keyed by (seed, token, link) so a given token's link time is
// stable no matter the call order.
//
//countnet:allow apivet -- delay fixture shared by the tests of three packages: root bench_test.go, histvar and schedule
func UniformRandom(c1, c2, seed int64) Delays {
	if c2 < c1 {
		c2 = c1
	}
	span := uint64(c2 - c1 + 1)
	return DelayFunc(func(tok, link int) int64 {
		x := splitmix64(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(tok)<<20 ^ uint64(link))
		return c1 + int64(x%span)
	})
}

// Bimodal returns deterministic pseudo-random Delays that are c1 with
// probability 1-p and c2 with probability p — the bursty "timing anomaly"
// distribution that maximizes inversions for a given c2/c1 ratio.
func Bimodal(c1, c2 int64, p float64, seed int64) Delays {
	return DelayFunc(func(tok, link int) int64 {
		x := splitmix64(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(tok)<<20 ^ uint64(link))
		if float64(x%1_000_000)/1_000_000 < p {
			return c2
		}
		return c1
	})
}

// splitmix64 is the SplitMix64 mixing function, used for stateless
// deterministic pseudo-randomness.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Result is the outcome of running a timing schedule.
type Result struct {
	// Ops holds one lincheck operation per token, indexed by token id:
	// Start is the arrival time Q(k,1), End the counter transition time
	// and Value the counter value the token received.
	Ops []lincheck.Op
	// Events is the full transition trace, in execution order, when
	// Options.Trace is set: one obs.Event per instantaneous transition of
	// the paper's execution model E = e1, e2, ... Each is a KindBalancer
	// (Value -1) or a KindCounter event carrying the assigned value, with
	// P = Tok = the token id and T the transition time. Span is the
	// event's 1-based index in the trace and Parent the token's previous
	// span, so every token's transitions form one causal chain.
	Events []obs.Event
}

// Report analyzes the execution's linearizability (Definition 2.4).
func (r *Result) Report() lincheck.Report { return lincheck.Analyze(r.Ops) }

// Options tunes Run.
type Options struct {
	// Trace records every transition event in Result.Events.
	Trace bool
}

// Run executes the timing schedule (arrivals, delays) on network g and
// returns the per-token results. Tokens are numbered by their index in
// arrivals; equal-time transitions are ordered by scheduling order (tokens
// entering earlier in the slice transition first), which the Section 4
// scenarios rely on.
func Run(g *topo.Graph, arrivals []Arrival, delays Delays, opts Options) (*Result, error) {
	n := len(arrivals)
	st := topo.NewStepper(g)
	res := &Result{Ops: make([]lincheck.Op, n)}
	var pq eventHeap
	var seq int64
	for k, a := range arrivals {
		if a.Input < 0 || a.Input >= g.InWidth() {
			return nil, fmt.Errorf("schedule: token %d arrives at input %d of %d", k, a.Input, g.InWidth())
		}
		tok := st.Inject(a.Input)
		if tok != k {
			return nil, fmt.Errorf("schedule: token numbering skew (%d != %d)", tok, k)
		}
		res.Ops[k].Start = a.Time
		heap.Push(&pq, item{time: a.Time, seq: seq, tok: k})
		seq++
	}
	hops := make([]int, n) // links traversed so far per token
	var lastSpan []uint64  // per token: span of its previous transition
	if opts.Trace {
		lastSpan = make([]uint64, n)
	}
	for pq.Len() > 0 {
		it := heap.Pop(&pq).(item)
		node := st.At(it.tok).Node
		done, err := st.Step(it.tok)
		if err != nil {
			return nil, err
		}
		v := int64(-1)
		if done {
			v, _ = st.Value(it.tok)
			res.Ops[it.tok].End = it.time
			res.Ops[it.tok].Value = v
		}
		if opts.Trace {
			kind := obs.KindBalancer
			if done {
				kind = obs.KindCounter
			}
			span := uint64(len(res.Events) + 1)
			tok := int32(it.tok)
			res.Events = append(res.Events, obs.Event{T: it.time, Kind: kind,
				P: tok, Tok: tok, Node: int32(node), Value: v,
				Span: span, Parent: lastSpan[it.tok]})
			lastSpan[it.tok] = span
		}
		if done {
			continue
		}
		hops[it.tok]++
		d := delays.Link(it.tok, hops[it.tok])
		if d <= 0 {
			return nil, fmt.Errorf("schedule: non-positive link delay %d for token %d link %d", d, it.tok, hops[it.tok])
		}
		heap.Push(&pq, item{time: it.time + d, seq: seq, tok: it.tok})
		seq++
	}
	return res, nil
}

// item is one pending transition in the event queue.
type item struct {
	time int64
	seq  int64
	tok  int
}

// eventHeap is a min-heap on (time, seq).
type eventHeap []item

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(item)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
