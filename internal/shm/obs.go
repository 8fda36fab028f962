package shm

import (
	"time"

	"countnet/internal/obs"
	"countnet/internal/topo"
)

// netObs is the observability state attached to a compiled Network by
// EnableObs: tracer, clock, and the live per-hop metric, the toggle-wait
// histogram, with the (Tog+W)/Tog ratio as a view of it. The output
// fetch-and-add count and the prism CAS-retry count are gauges computed at
// snapshot time, so a metered hop writes only the histogram's bucket and
// sum words.
type netObs struct {
	tr    obs.Tracer   // nil when tracing disabled
	clock func() int64 // nanoseconds on the run's monotonic timeline
	spans *obs.Clock   // causal span ids; non-nil exactly when tr is
	tog   *obs.Histogram
	ratio *obs.Ratio // read-only view of tog
}

// Ratio returns the live (Tog+W)/Tog view, or nil when EnableObs has
// not been called with a registry.
func (n *Network) Ratio() *obs.Ratio {
	if n.obs == nil {
		return nil
	}
	return n.obs.ratio
}

// EnableObs attaches a tracer and/or metrics registry to the network.
// clock supplies timestamps in nanoseconds on a monotonic timeline shared
// with the caller's operation records (nil defaults to time-since-now).
// effW is the effective injected per-node delay in nanoseconds, the W of
// the live (Tog+W)/Tog gauge. Call before any traversal; not safe to call
// concurrently with Traverse.
func (n *Network) EnableObs(tr obs.Tracer, reg *obs.Registry, clock func() int64, effW float64) {
	if tr == nil && reg == nil {
		return
	}
	if clock == nil {
		base := time.Now()
		clock = func() int64 { return int64(time.Since(base)) }
	}
	o := &netObs{tr: tr, clock: clock}
	if tr != nil {
		o.spans = obs.NewClock()
	}
	if reg != nil {
		o.tog = reg.Histogram("shm_tog_wait_ns")
		o.ratio = reg.RatioOf("shm_avg_c2c1", o.tog, effW)
		reg.GaugeFunc("shm_counter_fai_total", func() float64 { return float64(n.Issued()) })
		prisms := false
		for _, b := range n.balancers {
			prisms = prisms || b != nil && b.prism != nil
		}
		if prisms {
			reg.GaugeFunc("shm_prism_cas_retries_total", func() float64 {
				var total int64
				for _, b := range n.balancers {
					if b != nil && b.prism != nil {
						total += b.prism.Retries()
					}
				}
				return float64(total)
			})
		}
	}
	n.obs = o
}

// SpanClock returns the causal span clock tracing draws ids from, or nil
// when the network runs untraced. Drivers use it to stamp their own
// enter/exit events on the same timeline and chain them through
// TraverseSpan.
func (n *Network) SpanClock() *obs.Clock {
	if n.obs == nil {
		return nil
	}
	return n.obs.spans
}

// TraverseObs is TraverseSpan from a root span, with the last span
// dropped. Its one caller is the benchmark module's observer-effect row
// (bench/layers.go); the runtime calls TraverseSpan.
func (n *Network) TraverseObs(input int, proc, tok int32, afterNode func(id topo.NodeID)) int64 {
	v, _ := n.TraverseSpan(input, proc, tok, 0, afterNode)
	return v
}

// TraverseSpan routes one token like Traverse while recording per-node
// trace events and metrics under the identity (proc, tok) when EnableObs
// was called, and invokes afterNode (if non-nil) after every node the
// token leaves: each balancer and the final counter. Every recorded hop
// gets a span id from the network's Clock, chained parent → child along
// the token's path starting from parent (0 for a root). It returns the
// counter value and the last span id (parent itself when tracing is off),
// which the caller chains its exit event — or the token's next traversal —
// onto.
func (n *Network) TraverseSpan(input int, proc, tok int32, parent uint64, afterNode func(id topo.NodeID)) (int64, uint64) {
	id := n.g.Input(input).Node
	if n.obs == nil && afterNode == nil {
		return n.token(id, nil), parent
	}
	t := trip{o: n.obs, proc: proc, tok: tok, span: parent, afterNode: afterNode}
	v := n.token(id, &t)
	return v, t.span
}

// start opens a balancer hop: its start time when the network is metered
// or traced.
func (t *trip) start() int64 {
	if t.o == nil {
		return 0
	}
	return t.o.clock()
}

// left closes a balancer hop opened at t0: the toggle-wait histogram, the
// trace event and the hook.
func (t *trip) left(id topo.NodeID, t0 int64) {
	if o := t.o; o != nil {
		t1 := o.clock()
		if o.tog != nil {
			o.tog.Observe(t1 - t0)
		}
		o.record(obs.KindBalancer, id, t0, t1, -1, t)
	}
	t.visited(id)
}

// visited runs the trip's hook after the group left node id; the stress
// driver uses it to inject the paper's W-cycle delays.
func (t *trip) visited(id topo.NodeID) {
	if t.afterNode != nil {
		t.afterNode(id)
	}
}

// record traces one hop under the trip's identity, chained onto the trip's
// last span, and makes the hop the trip's last span.
func (o *netObs) record(kind obs.Kind, id topo.NodeID, t0, t1, value int64, t *trip) {
	if o.tr == nil || o.spans == nil {
		return
	}
	sp := o.spans.Tick()
	o.tr.Record(obs.Event{T: t1, Dur: t1 - t0, Kind: kind,
		P: t.proc, Tok: t.tok, Node: int32(id), Value: value,
		Span: sp, Parent: t.span})
	t.span = sp
}
