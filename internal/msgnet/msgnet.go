// Package msgnet runs a balancing network as a message-passing system: one
// goroutine per node, tokens as messages on channels. Section 2 of the
// paper notes its balancer model "is consistent with both the message
// passing and shared memory ... implementations"; this package is the
// message-passing half, with channel hops playing the role of links (their
// scheduling jitter is exactly the c2/c1 variability the measure bounds).
package msgnet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"countnet/internal/faults"
	"countnet/internal/obs"
	"countnet/internal/topo"
)

// token is one counting request in flight.
type token struct {
	reply chan reply
	// id is the token's network-unique identity, used by receivers to
	// deduplicate faulty deliveries; 0 on fault-free networks (no dedup).
	id uint64
	// Tracing identity and the enqueue timestamp of the current hop;
	// proc/tok are -1 for untraced traversals.
	proc, tok int32
	enq       int64
	// span is the id of the token's most recent causal event — the parent
	// of whatever the token does next. 0 when tracing is off.
	span uint64
}

// reply is a counter's answer: the value plus the span id of the counting
// event, so the requester's exit event can chain onto it causally.
type reply struct {
	v    int64
	span uint64
}

// Options configures Start.
type Options struct {
	// Buffer is the capacity of each node's inbox (0 for fully
	// synchronous hand-off).
	Buffer int
	// Tracer, when non-nil, receives per-hop balancer/counter events (and
	// enter/exit events from TraverseObs).
	Tracer obs.Tracer
	// Metrics, when non-nil, receives the msgnet metric family: hop-wait
	// histogram, live (Tog+W)/Tog, per-node queue-depth gauges.
	Metrics *obs.Registry
	// EffWait is the W (in nanoseconds) of the live (Tog+W)/Tog gauge —
	// whatever per-node delay the driver injects; zero when none.
	EffWait float64
	// Faults, when non-nil and active, runs the network under the plan's
	// deterministic fault injection: link drops with retransmission,
	// duplicates, reordering, delays, partitions, and node stalls or
	// crash windows. The plan is validated; a plan with no faults at all
	// leaves the engine on its zero-overhead path.
	Faults *faults.Plan
	// Flight, when non-nil, receives every event the tracer would (teed
	// with Tracer if both are set) and is tripped with reason
	// "liveness-valve" when the fault plan's valve forces a delivery
	// through, which freezes it on the moments before. The owner writes
	// it out with obs.Dump after Close.
	Flight *obs.Ring
}

// netObs is the observability state of a running network.
type netObs struct {
	tr    obs.Tracer
	clock func() int64
	spans *obs.Clock // causal span ids; non-nil exactly when tr is
	tog   *obs.Histogram
	ratio *obs.Ratio     // read-only view of tog
	retry *obs.Histogram // backoff waits of fault retransmissions
}

// Network is a running message-passing balancing network. Create with
// Start, use Traverse from any number of goroutines, and Close when done.
type Network struct {
	g      *topo.Graph
	inbox  []chan token // one per node
	stop   chan struct{}
	done   sync.WaitGroup
	closed sync.Once
	// stopMu orders every courier's done.Add before Close's done.Wait:
	// couriers are also spawned from Traverse callers, which no node
	// goroutine's count covers.
	stopMu sync.RWMutex
	obs    *netObs   // nil when neither tracer nor metrics configured
	flight *obs.Ring // nil unless Options.Flight was set

	// Fault-injection state; inj is nil on fault-free networks and the
	// rest is untouched.
	inj      *faults.Injector
	linkBase []int // link id of each node's output port 0
	nextID   atomic.Uint64
	retries  atomic.Int64
	dedups   atomic.Int64
}

// Start launches one goroutine per node of g. buffer is the capacity of
// each node's inbox (0 for fully synchronous hand-off).
func Start(g *topo.Graph, buffer int) (*Network, error) {
	return StartOpts(g, Options{Buffer: buffer})
}

// StartOpts is Start with tracing and metrics.
func StartOpts(g *topo.Graph, opts Options) (*Network, error) {
	if g == nil {
		return nil, fmt.Errorf("msgnet: nil graph")
	}
	if opts.Buffer < 0 {
		return nil, fmt.Errorf("msgnet: negative buffer %d", opts.Buffer)
	}
	buffer := opts.Buffer
	n := &Network{
		g:      g,
		inbox:  make([]chan token, g.NumNodes()),
		stop:   make(chan struct{}),
		flight: opts.Flight,
	}
	if p := opts.Faults; p != nil && p.Active() {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		var dests []int
		n.linkBase, dests = linkTables(g)
		n.inj = faults.NewInjector(p, dests)
	}
	if opts.Tracer != nil || opts.Metrics != nil || opts.Flight != nil {
		base := time.Now()
		// The assignment through a local interface keeps a nil *Ring from
		// becoming a non-nil Tracer inside Tee.
		var ft obs.Tracer
		if opts.Flight != nil {
			ft = opts.Flight
		}
		o := &netObs{tr: obs.Tee(opts.Tracer, ft), clock: func() int64 { return int64(time.Since(base)) }}
		if o.tr != nil {
			o.spans = obs.NewClock()
		}
		if opts.Metrics != nil {
			o.tog = opts.Metrics.Histogram("msgnet_hop_wait_ns")
			o.ratio = opts.Metrics.RatioOf("msgnet_avg_c2c1", o.tog, opts.EffWait)
			for id := 0; id < g.NumNodes(); id++ {
				id := id
				opts.Metrics.GaugeFunc(fmt.Sprintf("msgnet_node%03d_queue", id),
					func() float64 { return float64(len(n.inbox[id])) })
			}
			if n.inj != nil {
				o.retry = opts.Metrics.Histogram("msgnet_retry_wait_ns")
				registerFaultMetrics(opts.Metrics, n)
			}
		}
		n.obs = o
	}
	for id := range n.inbox {
		n.inbox[id] = make(chan token, buffer)
	}
	for id := 0; id < g.NumNodes(); id++ {
		id := topo.NodeID(id)
		n.done.Add(1)
		switch g.KindOf(id) {
		case topo.KindBalancer:
			go n.balancer(id)
		case topo.KindCounter:
			go n.counter(id)
		}
	}
	return n, nil
}

// balancer routes arriving tokens round-robin over its output destinations.
func (n *Network) balancer(id topo.NodeID) {
	defer n.done.Done()
	fanOut := n.g.FanOut(id)
	dests := make([]chan token, fanOut)
	for p := 0; p < fanOut; p++ {
		dests[p] = n.inbox[n.g.OutDest(id, p).Node]
	}
	toggle := 0
	o := n.obs
	var seen map[uint64]struct{}
	if n.inj != nil {
		seen = make(map[uint64]struct{})
	}
	for {
		select {
		case t := <-n.inbox[id]:
			if seen != nil && t.id != 0 {
				// The topology is a DAG, so a token reaches each node at
				// most once: a repeated id here is a faulty duplicate.
				if _, dup := seen[t.id]; dup {
					n.dedups.Add(1)
					n.recordDedup(id, t)
					continue
				}
				seen[t.id] = struct{}{}
			}
			if o != nil {
				now := o.clock()
				wait := now - t.enq
				if o.tog != nil {
					o.tog.Observe(wait)
				}
				if o.tr != nil {
					o.spans.Witness(t.span)
					sp := o.spans.Tick()
					o.tr.Record(obs.Event{T: now, Dur: wait, Kind: obs.KindBalancer,
						P: t.proc, Tok: t.tok, Node: int32(id), Value: -1,
						Span: sp, Parent: t.span})
					t.span = sp
				}
				t.enq = o.clock()
			}
			port := toggle
			toggle = (toggle + 1) % fanOut
			if !n.forward(n.linkOf(id, port), dests[port], t) {
				return
			}
		case <-n.stop:
			return
		}
	}
}

// linkOf returns the link id of node id's output port p; meaningful only
// while fault injection is active (linkBase is nil otherwise).
func (n *Network) linkOf(id topo.NodeID, p int) int {
	if n.linkBase == nil {
		return 0
	}
	return n.linkBase[id] + p
}

// counter assigns i + w*a to the a-th arriving token and replies.
func (n *Network) counter(id topo.NodeID) {
	defer n.done.Done()
	idx := int64(n.g.CounterIndex(id))
	w := int64(n.g.OutWidth())
	var count int64
	o := n.obs
	var seen map[uint64]struct{}
	if n.inj != nil {
		seen = make(map[uint64]struct{})
	}
	for {
		select {
		case t := <-n.inbox[id]:
			if seen != nil && t.id != 0 {
				// Deduplicate before taking a count: a faulty duplicate
				// must neither consume a value nor double-reply on the
				// token's capacity-1 reply channel.
				if _, dup := seen[t.id]; dup {
					n.dedups.Add(1)
					n.recordDedup(id, t)
					continue
				}
				seen[t.id] = struct{}{}
			}
			v := idx + w*count
			count++
			sp := t.span
			if o != nil && o.tr != nil {
				now := o.clock()
				o.spans.Witness(t.span)
				sp = o.spans.Tick()
				o.tr.Record(obs.Event{T: now, Dur: now - t.enq, Kind: obs.KindCounter,
					P: t.proc, Tok: t.tok, Node: int32(id), Value: v,
					Span: sp, Parent: t.span})
			}
			t.reply <- reply{v: v, span: sp}
		case <-n.stop:
			return
		}
	}
}

// recordDedup traces a suppressed duplicate arrival at node id: the
// conflict is part of the token's causal story (a dedup racing the
// original is how a faulty network shows up in a witness trace), so it
// gets its own span parented on the duplicate's last hop.
func (n *Network) recordDedup(id topo.NodeID, t token) {
	o := n.obs
	if o == nil || o.tr == nil {
		return
	}
	o.spans.Witness(t.span)
	o.tr.Record(obs.Event{T: o.clock(), Kind: obs.KindDedup,
		P: t.proc, Tok: t.tok, Node: int32(id), Value: -1,
		Span: o.spans.Tick(), Parent: t.span})
}

// Traverse sends one token into network input `input` and returns its
// counter value. It must not be called after Close.
func (n *Network) Traverse(input int) (int64, error) {
	return n.TraverseObs(input, -1, -1)
}

// TraverseObs is Traverse carrying a (proc, tok) tracing identity: when the
// network was started with a tracer, the token's hops are recorded under
// that identity along with enter/exit events.
func (n *Network) TraverseObs(input int, proc, tok int32) (int64, error) {
	if input < 0 || input >= n.g.InWidth() {
		return 0, fmt.Errorf("msgnet: input %d out of range [0,%d)", input, n.g.InWidth())
	}
	t := token{reply: make(chan reply, 1), proc: proc, tok: tok}
	if n.inj != nil {
		t.id = n.nextID.Add(1)
	}
	o := n.obs
	var start int64
	if o != nil {
		start = o.clock()
		t.enq = start
		if o.tr != nil && tok >= 0 {
			sp := o.spans.Tick()
			o.tr.Record(obs.Event{T: start, Kind: obs.KindEnter,
				P: proc, Tok: tok, Node: -1, Value: -1, Span: sp})
			t.span = sp
		}
	}
	// Input i rides link i; the entry hop is fault-injectable like any
	// other wire.
	if !n.forward(input, n.inbox[n.g.Input(input).Node], t) {
		return 0, fmt.Errorf("msgnet: network closed")
	}
	select {
	case r := <-t.reply:
		if o != nil && o.tr != nil && tok >= 0 {
			now := o.clock()
			o.spans.Witness(r.span)
			o.tr.Record(obs.Event{T: now, Dur: now - start, Kind: obs.KindExit,
				P: proc, Tok: tok, Node: -1, Value: r.v,
				Span: o.spans.Tick(), Parent: r.span})
		}
		return r.v, nil
	case <-n.stop:
		return 0, fmt.Errorf("msgnet: network closed")
	}
}

// Next is the network as shm.Drive's counter seam: token tok of worker
// proc enters at input proc mod the input width, carrying (proc, tok) as
// its tracing identity.
func (n *Network) Next(proc, tok int32) (int64, error) {
	return n.TraverseObs(int(proc)%n.g.InWidth(), proc, tok)
}

// Ratio returns the live (Tog+W)/Tog view, or nil when the network
// was started without metrics.
func (n *Network) Ratio() *obs.Ratio {
	if n.obs == nil {
		return nil
	}
	return n.obs.ratio
}

// Close stops every node goroutine and waits for them to exit. Tokens in
// flight are dropped; their Traverse calls return an error.
func (n *Network) Close() {
	n.closed.Do(func() {
		n.stopMu.Lock()
		close(n.stop)
		n.stopMu.Unlock()
	})
	n.done.Wait()
}
