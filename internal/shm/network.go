package shm

import (
	"fmt"
	"sync/atomic"
	"time"

	"countnet/internal/obs"
	"countnet/internal/topo"
)

// Options configures network compilation.
type Options struct {
	// Kind selects the toggle implementation; default KindMCS (the
	// paper's).
	Kind Kind
	// Diffract wraps every two-output balancer with a prism.
	Diffract bool
	// PrismWidth is the slot count of each prism (default 4).
	PrismWidth int
	// PrismWindow is the partner wait (default 5µs).
	PrismWindow time.Duration
}

// paddedCounter keeps per-output counters on separate cache lines.
type paddedCounter struct {
	v atomic.Int64
	_ [56]byte
}

// Network is a balancing network compiled for direct traversal by
// goroutines: the paper's shared-memory counting network. It implements a
// w-width shared counter whose Traverse returns globally unique,
// step-property-consistent values.
type Network struct {
	g         *topo.Graph
	balancers []Balancer // indexed by NodeID; nil for counters
	counters  []paddedCounter
	w         int64
	obs       *netObs // nil until EnableObs; read-only afterwards
}

// Compile builds the runtime for g.
func Compile(g *topo.Graph, opts Options) (*Network, error) {
	if g == nil {
		return nil, fmt.Errorf("shm: nil graph")
	}
	if opts.Kind == 0 {
		opts.Kind = KindMCS
	}
	if opts.PrismWidth == 0 {
		opts.PrismWidth = 4
	}
	if opts.PrismWindow == 0 {
		opts.PrismWindow = 5 * time.Microsecond
	}
	n := &Network{
		g:         g,
		balancers: make([]Balancer, g.NumNodes()),
		counters:  make([]paddedCounter, g.OutWidth()),
		w:         int64(g.OutWidth()),
	}
	var slab []mcsBalancer
	left := g.NumBalancers()
	for id := range topo.NodeID(g.NumNodes()) {
		if g.KindOf(id) != topo.KindBalancer {
			continue
		}
		var b Balancer
		var err error
		if opts.Kind == KindMCS {
			if len(slab) == 0 {
				slab = make([]mcsBalancer, min(left, mcsSlab))
				left -= len(slab)
			}
			slab[0].fanOut = int64(g.FanOut(id))
			b, slab = &slab[0], slab[1:]
		} else if b, err = NewBalancer(opts.Kind, g.FanOut(id)); err != nil {
			return nil, err
		}
		if opts.Diffract && g.FanOut(id) == 2 {
			if b, err = NewDiffracting(b, opts.PrismWidth, opts.PrismWindow); err != nil {
				return nil, err
			}
		}
		n.balancers[id] = b
	}
	return n, nil
}

// Graph returns the compiled topology.
func (n *Network) Graph() *topo.Graph { return n.g }

// InWidth returns the number of network inputs.
func (n *Network) InWidth() int { return n.g.InWidth() }

// OutWidth returns the number of output counters.
func (n *Network) OutWidth() int { return int(n.w) }

// Traverse routes one token from the given input to a counter and returns
// its value. Safe for concurrent use by any number of goroutines.
//
//countnet:hotpath
func (n *Network) Traverse(input int) int64 {
	var t trip
	var v [1]int64
	return n.walk(n.g.Input(input), 1, &t, v[:0])[0]
}

// trip is what travels with a token (or a combined group of tokens)
// through walk: the (proc, tok) identity its trace events carry, the span
// its next event chains onto, and the caller's per-node hook.
type trip struct {
	proc, tok int32
	span      uint64
	afterNode func(id topo.NodeID)
}

// visited runs the trip's hook after the group left node id; the stress
// driver uses it to inject the paper's W-cycle delays.
func (t *trip) visited(id topo.NodeID) {
	if t.afterNode != nil {
		t.afterNode(id)
	}
}

// walk routes demand tokens entering at p to the output counters as one
// group and appends their values to out in exit order. It is the only
// network walk: every Traverse variant is a wrapper around it.
//
// At each balancer a single token takes one Traverse and the loop moves
// on. A larger group is routed by batchRoute in one critical section,
// which advances the toggle once per token, exactly as demand
// back-to-back tokens would; the walk then recurses on every occupied
// output in port order, so the group splits exactly where the toggles
// route it. Each counter fetch-and-adds the size of the group that
// reaches it. Quiescent counting and the step property are therefore
// those of demand sequential tokens, for any interleaving with
// concurrent traffic.
//
//countnet:hotpath
func (n *Network) walk(p topo.PortRef, demand int, t *trip, out []int64) []int64 {
	o := n.obs
	for {
		id := p.Node
		b := n.balancers[id]
		if b == nil {
			break
		}
		var t0 int64
		if o != nil {
			t0 = o.clock()
		}
		// A single token continues on its own branch instead of sharing the
		// group's: with the tally and split state merged into one hop, every
		// plain traversal paid for spilling them, 2-7% in p50 latency on the
		// walking benchmark workloads.
		if demand == 1 {
			port := b.Traverse()
			if o != nil {
				o.toggled(id, t0, t)
			}
			t.visited(id)
			p = n.g.OutDest(id, port)
			continue
		}
		var tally [8]int
		var split []int
		if fo := n.g.FanOut(id); fo <= len(tally) {
			split = tally[:fo]
		} else {
			split = make([]int, fo)
		}
		batchRoute(b, demand, split)
		if o != nil {
			o.toggled(id, t0, t)
		}
		t.visited(id)
		span := t.span
		for q, d := range split {
			if d > 0 {
				t.span = span
				out = n.walk(n.g.OutDest(id, q), d, t, out)
			}
		}
		return out
	}
	id := p.Node
	idx := n.g.CounterIndex(id)
	// A counter hop has no metric of its own, so only a trace times it.
	var t0 int64
	if o != nil && o.tr != nil {
		t0 = o.clock()
	}
	first := int64(idx) + n.w*(n.counters[idx].v.Add(int64(demand))-int64(demand))
	for i := 0; i < demand; i++ {
		out = append(out, first+n.w*int64(i))
	}
	if o != nil && o.tr != nil {
		// The hop's value is the smallest of the demand values it handed out.
		o.record(obs.KindCounter, id, t0, o.clock(), first, t)
	}
	t.visited(id)
	return out
}

// Issued returns how many values the network has handed out, the sum of
// its output counters; exact at quiescence.
func (n *Network) Issued() int64 {
	var total int64
	for i := range n.counters {
		total += n.counters[i].v.Load()
	}
	return total
}

// CounterCounts returns the number of tokens that exited each output; in a
// quiescent state they must satisfy the step property.
func (n *Network) CounterCounts() []int64 {
	out := make([]int64, len(n.counters))
	for i := range n.counters {
		out[i] = n.counters[i].v.Load()
	}
	return out
}
