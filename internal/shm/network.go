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
	// Diffract puts a prism in front of every two-output balancer.
	Diffract bool
	// PrismWidth is the slot count of each prism (default 4).
	PrismWidth int
	// PrismWindow is the partner wait (default 5µs).
	PrismWindow time.Duration
}

// paddedCounter is the fetch-and-add word of an output counter that no
// balancer's port 0 or 1 feeds, such as one on port 2 of a ternary tree or
// one wired straight to an input, alone in a 128-byte line pair of its own,
// as a balancer's written words are. Every other counter's word sits on its
// feeding balancer's written line (Balancer.exits).
type paddedCounter struct {
	v atomic.Int64
	_ [120]byte
}

// Network is a balancing network compiled for direct traversal by
// goroutines: the paper's shared-memory counting network. It implements a
// w-width shared counter whose Traverse returns globally unique,
// step-property-consistent values.
type Network struct {
	g         *topo.Graph
	dsts      []topo.PortRef  // g.Dests(): port p of balancer b leads to dsts[b.out+p]
	balancers []*Balancer     // indexed by NodeID; nil for counters
	spare     []paddedCounter // indexed by counter index; nil when every counter's word is on a balancer's line
	w         int64
	obs       *netObs // nil until EnableObs; read-only afterwards
}

// Compile builds the runtime for g. It carves every balancer, of any
// kind, from slabs of eight 128-byte line pairs, puts each output
// counter's word on the written line of the balancer that feeds it, or in
// a spare line pair when no port 0 or 1 does, and links each balancer to
// the balancers its ports 0 and 1 lead to.
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
		dsts:      g.Dests(),
		balancers: make([]*Balancer, g.NumNodes()),
		w:         int64(g.OutWidth()),
	}
	// Ids [0, nb) are the balancers and the last w ids the counters.
	nb := g.NumBalancers()
	var bs []Balancer
	for id := range topo.NodeID(nb) {
		if len(bs) == 0 {
			k := min(nb-int(id), slab)
			if k == 5 {
				k = 6 // see slab
			}
			bs = make([]Balancer, k)
		}
		b := &bs[0]
		bs = bs[1:]
		if err := b.init(opts.Kind, g.FanOut(id)); err != nil {
			return nil, err
		}
		b.out = int32(g.OutOffset(id))
		if opts.Diffract && g.FanOut(id) == 2 {
			if _, err := NewDiffracting(b, opts.PrismWidth, opts.PrismWindow); err != nil {
				return nil, err
			}
		}
		n.balancers[id] = b
	}
	// Node ids are a topological order, so a balancer's successors are
	// carved after it: link them once every balancer is in place.
	for _, b := range n.balancers[:nb] {
		for p := range min(int(b.fanOut), len(b.succ)) {
			b.succ[p] = n.balancers[n.dsts[int(b.out)+p].Node]
		}
	}
	// With every balancer in place, every counter's word is too: it starts
	// at the counter's index.
	for i := range g.OutWidth() {
		id := topo.NodeID(nb + i)
		if !onLine(g.InSrc(id, 0)) && n.spare == nil {
			n.spare = make([]paddedCounter, g.OutWidth())
		}
		n.word(id).Store(int64(i))
	}
	return n, nil
}

// InWidth returns the number of network inputs.
func (n *Network) InWidth() int { return n.g.InWidth() }

// Traverse routes one token from the given input to a counter and returns
// its value. Safe for concurrent use by any number of goroutines.
//
//countnet:hotpath
func (n *Network) Traverse(input int) int64 {
	id := n.g.Input(input).Node
	if n.obs == nil {
		return n.token(id, nil)
	}
	t := trip{o: n.obs}
	return n.token(id, &t)
}

// trip is what travels with a hooked or observed token, and with every
// combined group of tokens, through the walk: the network's observability
// state, the (proc, tok) identity its trace events carry, the span its
// next event chains onto, and the caller's per-node hook.
type trip struct {
	o         *netObs // nil when the network runs unobserved
	proc, tok int32
	span      uint64
	afterNode func(id topo.NodeID)
}

// token routes one token from node id to a counter and returns its value.
// It is the only single-token walk: Traverse, TraverseSpan and every
// one-token branch of a batch walk go through it. t is nil for a plain
// token, one with no hook on an unobserved network; otherwise each hop
// also meters, traces and runs the hook.
//
// A plain MCS toggle is taken inline: the idle fast path (swap) is one
// compare-and-swap on the balancer's line, and only a token that finds a
// holder or a waiter, or loses the swap, calls out to queue, so contended
// tokens are admitted in FIFO order as before. Every other balancer, an
// atomic or mutex toggle or one behind a prism, is one Traverse call.
// Either way a plain token leaving port 0 or 1 takes its next balancer
// with one load of the line it read the kind from (Balancer.succ), and
// one leaving for a counter takes its value on the line whose toggle it
// just moved (Balancer.exits). A hooked or observed token needs the next
// node id, and so does a token leaving port 2: the balancer's line holds
// where its output destinations start in the graph's flat Dests array, so
// that id is one load too. A plain token sets id only on that path, the
// only one that can end the loop at a counter, so its final take reads the
// right id.
//
//countnet:hotpath
func (n *Network) token(id topo.NodeID, t *trip) int64 {
	b := n.balancers[id]
	for b != nil {
		var t0 int64
		if t != nil {
			t0 = t.start()
		}
		var port int
		if Kind(b.kind) == KindMCS && b.prism == nil {
			var idle bool
			if port, idle = b.swap(); !idle {
				port = b.queue()
			}
		} else {
			port = b.Traverse()
		}
		if t == nil && uint(port) < uint(len(b.succ)) {
			// A plain token leaving port 0 or 1 (the unsigned compare
			// spares both indexes a bounds check).
			nb := b.succ[port]
			if nb == nil {
				return b.exits[port].Add(n.w) - n.w
			}
			b = nb
			continue
		}
		// The next hop is read before the hook runs: a hook that pauses
		// would otherwise pull the balancer's line back after the pause,
		// and the next token to swap the toggle would pay to take it.
		next := n.dsts[int(b.out)+port].Node
		nb := n.balancers[next]
		if t != nil {
			t.left(id, t0)
		}
		id, b = next, nb
	}
	if t == nil {
		return n.take(id, 1)
	}
	return n.exit(id, 1, t)
}

// walk routes demand tokens entering at node id to the output counters as
// one group and appends their values to out in exit order. It is the
// batch walk: a single token, whether it entered alone or split off a
// group, goes through token.
//
// A larger group is routed by Balancer.route in one critical section,
// which advances the toggle once per token, exactly as demand
// back-to-back tokens would; the walk then recurses on every occupied
// output in port order, so the group splits exactly where the toggles
// route it. Each counter fetch-and-adds the size of the group that
// reaches it. Quiescent counting and the step property are therefore
// those of demand sequential tokens, for any interleaving with concurrent
// traffic.
//
//countnet:hotpath
func (n *Network) walk(id topo.NodeID, demand int, t *trip, out []int64) []int64 {
	if demand == 1 {
		return append(out, n.token(id, t))
	}
	b := n.balancers[id]
	if b == nil {
		first := n.exit(id, demand, t)
		for i := 0; i < demand; i++ {
			out = append(out, first+n.w*int64(i))
		}
		return out
	}
	t0 := t.start()
	var tally [8]int
	var split []int
	if fo := int(b.fanOut); fo <= len(tally) {
		split = tally[:fo]
	} else {
		split = make([]int, fo)
	}
	b.route(demand, split)
	t.left(id, t0)
	span := t.span
	for q, d := range split {
		if d > 0 {
			t.span = span
			out = n.walk(n.dsts[int(b.out)+q].Node, d, t, out)
		}
	}
	return out
}

// take gives the demand tokens that reached counter id the counter's next
// demand values and returns the smallest.
func (n *Network) take(id topo.NodeID, demand int) int64 {
	d := n.w * int64(demand)
	return n.word(id).Add(d) - d
}

// onLine reports whether a counter fed from src keeps its word on the
// feeding balancer's line: whether src is port 0 or 1 of a balancer.
func onLine(src topo.Src) bool {
	return !src.IsInput() && int(src.Port) < len(Balancer{}.exits)
}

// word returns counter id's fetch-and-add word, which holds the counter's
// next value: it starts at the counter's index and steps by the output
// width.
func (n *Network) word(id topo.NodeID) *atomic.Int64 {
	if src := n.g.InSrc(id, 0); onLine(src) {
		return &n.balancers[src.Node].exits[src.Port]
	}
	return &n.spare[n.g.CounterIndex(id)].v
}

// exit is a counter hop of a hooked or observed walk: take, timed when
// traced, then the hook. A counter hop has no metric of its own, so only
// a trace times it.
func (n *Network) exit(id topo.NodeID, demand int, t *trip) int64 {
	var o *netObs
	if t.o != nil && t.o.tr != nil {
		o = t.o
	}
	var t0 int64
	if o != nil {
		t0 = o.clock()
	}
	first := n.take(id, demand)
	if o != nil {
		// The hop's value is the smallest of the demand values it handed
		// out.
		o.record(obs.KindCounter, id, t0, o.clock(), first, t)
	}
	t.visited(id)
	return first
}

// Issued returns how many values the network has handed out, the sum of
// its output counters; exact at quiescence.
func (n *Network) Issued() int64 {
	var total int64
	for _, c := range n.CounterCounts() {
		total += c
	}
	return total
}

// CounterCounts returns the number of tokens that exited each output; in a
// quiescent state they must satisfy the step property.
func (n *Network) CounterCounts() []int64 {
	out := make([]int64, n.w)
	for id := range topo.NodeID(n.g.NumNodes()) {
		if i := n.g.CounterIndex(id); i >= 0 {
			// The word holds i + w*count, and i < w.
			out[i] = n.word(id).Load() / n.w
		}
	}
	return out
}
