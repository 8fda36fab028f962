// Package countnet implements counting networks — bitonic networks,
// periodic networks, and counting (diffracting) trees — together with the
// timing-based linearizability theory of Lynch, Shavit, Shvartsman, and
// Touitou, "Counting Networks are Practically Linearizable" (PODC 1996).
//
// A counting network is a low-contention concurrent counter: tokens enter a
// network of balancers and leave with globally consistent values, with no
// central hot spot. Counting networks guarantee the quiescent step property
// but not linearizability: an operation can return a smaller value than an
// operation that finished before it started. The paper's contribution,
// exposed here as the Timing measure, is that the ratio c2/c1 between the
// longest and shortest link-traversal times bounds when that can happen:
//
//   - c2 <= 2*c1: every uniform counting network is linearizable
//     (use Timing.Linearizable).
//   - c2 = k*c1, k > 2: operations separated by more than
//     Timing.StartStartGap are still ordered, and Topology.Pad buys full
//     linearizability back with h*(k-2) prefix balancers per input.
//
// Construct a Topology, compile it into a Counter, and draw values from
// any number of goroutines:
//
//	topo, _ := countnet.BitonicTopology(8)
//	ctr, _ := countnet.NewCounter(topo)
//	v := ctr.Next()
//
// Use Monitor to check real executions for linearizability violations, and
// see the internal packages (via the cmd tools and benchmarks) for the
// paper's simulator-based evaluation.
package countnet

import (
	"errors"
	"fmt"
	"time"

	"countnet/internal/bitonic"
	"countnet/internal/core"
	"countnet/internal/dtree"
	"countnet/internal/lincheck"
	"countnet/internal/periodic"
	"countnet/internal/shm"
	"countnet/internal/topo"
)

// errZeroTopology reports use of the zero Topology value.
var errZeroTopology = errors.New("countnet: zero Topology")

// Topology is an immutable balancing-network layout.
type Topology struct {
	g *topo.Graph
}

// BitonicTopology returns the Aspnes-Herlihy-Shavit bitonic counting
// network of width w (a power of two >= 2), depth log2(w)*(log2(w)+1)/2.
func BitonicTopology(w int) (Topology, error) {
	g, err := bitonic.New(w)
	if err != nil {
		return Topology{}, err
	}
	return Topology{g: g}, nil
}

// PeriodicTopology returns the Aspnes-Herlihy-Shavit periodic counting
// network of width w (a power of two >= 2), depth log2(w)^2.
func PeriodicTopology(w int) (Topology, error) {
	g, err := periodic.New(w)
	if err != nil {
		return Topology{}, err
	}
	return Topology{g: g}, nil
}

// TreeTopology returns the Shavit-Zemach counting tree with w leaves (a
// power of two >= 2), depth log2(w), with a single input at the root.
func TreeTopology(w int) (Topology, error) {
	g, err := dtree.New(w)
	if err != nil {
		return Topology{}, err
	}
	return Topology{g: g}, nil
}

// TreeTopologyArity returns a counting tree of 1-input arity-output
// balancers with w leaves (w a positive power of arity >= 2), depth
// log_arity(w). Higher arity trades per-node fan-out for depth — the knob
// the Theorem 3.6 padding effect depends on.
func TreeTopologyArity(w, arity int) (Topology, error) {
	g, err := dtree.NewArity(w, arity)
	if err != nil {
		return Topology{}, err
	}
	return Topology{g: g}, nil
}

// Valid reports whether the topology was produced by a constructor.
func (t Topology) Valid() bool { return t.g != nil }

// InWidth returns the number of network inputs.
func (t Topology) InWidth() int { return t.g.InWidth() }

// Width returns the number of output counters (the network width w).
func (t Topology) Width() int { return t.g.OutWidth() }

// Depth returns the number of links on every input-to-counter path.
func (t Topology) Depth() int { return t.g.Depth() }

// Uniform reports whether all input-to-output paths have equal length
// (Definition 2.1 of the paper); all built-in constructions are uniform.
func (t Topology) Uniform() bool { return t.g.Uniform() }

// Balancers returns the number of balancing nodes.
func (t Topology) Balancers() int { return t.g.NumBalancers() }

// Pad returns the Corollary 3.12 transform of t for a known timing-ratio
// bound k (c2 <= k*c1): each input is prefixed with Depth()*(k-2)
// pass-through balancers, making every pair of non-overlapping operations
// ordered under any schedule respecting the bound. k <= 2 returns an
// identical copy (no padding is needed).
func (t Topology) Pad(k int) (Topology, error) {
	if !t.Valid() {
		return Topology{}, errZeroTopology
	}
	g, err := topo.Pad(t.g, core.PaddingLength(t.g.Depth(), k))
	if err != nil {
		return Topology{}, err
	}
	return Topology{g: g}, nil
}

// Dot renders the network in Graphviz format.
func (t Topology) Dot(name string) string { return topo.Dot(t.g, name) }

// String summarizes the topology.
func (t Topology) String() string {
	if !t.Valid() {
		return "countnet.Topology(zero)"
	}
	return topo.Summary(t.g)
}

// Graph exposes the underlying graph to the internal engines (tests,
// benchmarks, and cmd tools within this module).
func (t Topology) Graph() *topo.Graph { return t.g }

// BalancerImpl selects the toggle implementation of a Counter.
type BalancerImpl int

// Toggle implementations for NewCounter.
const (
	// MCS protects each toggle with a Mellor-Crummey-Scott queue lock,
	// the implementation evaluated in the paper.
	MCS = BalancerImpl(shm.KindMCS)
	// Mutex protects each toggle with a sync.Mutex.
	Mutex = BalancerImpl(shm.KindMutex)
	// Atomic implements each balancer with one atomic fetch-and-add.
	Atomic = BalancerImpl(shm.KindAtomic)
)

// CounterOption configures NewCounter.
type CounterOption func(*shm.Options)

// WithBalancer selects the toggle implementation (default MCS). Any value
// but MCS, Mutex and Atomic fails the build.
func WithBalancer(impl BalancerImpl) CounterOption {
	return func(o *shm.Options) {
		// A zero Kind asks Compile for its default, so an explicit zero
		// goes in as a kind Compile rejects.
		if o.Kind = shm.Kind(impl); impl == 0 {
			o.Kind = -1
		}
	}
}

// WithDiffraction puts a prism of the given width in front of every
// two-output balancer; concurrent tokens collide in it and skip the
// toggle, and window is how long a token waits for a partner. Use with
// TreeTopology for a diffracting tree.
func WithDiffraction(prismWidth int, window time.Duration) CounterOption {
	return func(o *shm.Options) {
		o.Diffract = true
		o.PrismWidth = prismWidth
		o.PrismWindow = window
	}
}

// Counter is a concurrent shared counter backed by a counting network. All
// methods are safe for concurrent use by any number of goroutines.
type Counter struct {
	net *shm.Network
}

// NewCounter compiles the topology into a runnable concurrent counter.
func NewCounter(t Topology, opts ...CounterOption) (*Counter, error) {
	if !t.Valid() {
		return nil, errZeroTopology
	}
	net, err := shm.Compile(t.g, buildOptions(opts))
	if err != nil {
		return nil, err
	}
	return &Counter{net: net}, nil
}

// Next draws the next value, entering the network at the calling
// processor's own home input (see shm.Network.Home): each processor keeps
// one input, and the first processors' inputs spread over the network's
// halves and then quarters, so on bitonic[8] the first two processors
// enter different Bitonic[4] halves. A counting network counts for any
// distribution of inputs: values across all goroutines form a permutation
// of 0, 1, 2, ..., and a single caller still draws 0, 1, 2, ... in order;
// see the package comment for the exact ordering guarantees.
func (c *Counter) Next() int64 {
	return c.net.Traverse(c.net.Home())
}

// NextAt draws the next value entering at a specific network input, which
// callers can use to pin goroutines to inputs of their choosing rather
// than to their processor's home, as Next does.
func (c *Counter) NextAt(input int) (int64, error) {
	if input < 0 || input >= c.net.InWidth() {
		return 0, fmt.Errorf("countnet: input %d out of range [0,%d)", input, c.net.InWidth())
	}
	return c.net.Traverse(input), nil
}

// NextInstrumented draws a value entering at input and calls afterNode
// after every node transition (balancers and the final counter). It exists
// for timing experiments: pausing in afterNode reproduces the paper's
// "wait W after traversing a node" anomaly exactly, which is what turns a
// counting network's weak ordering into observable linearizability
// violations.
func (c *Counter) NextInstrumented(input int, afterNode func()) (int64, error) {
	if input < 0 || input >= c.net.InWidth() {
		return 0, fmt.Errorf("countnet: input %d out of range [0,%d)", input, c.net.InWidth())
	}
	if afterNode == nil {
		return c.net.Traverse(input), nil
	}
	v, _ := c.net.TraverseSpan(input, 0, 0, 0, func(topo.NodeID) { afterNode() })
	return v, nil
}

// InWidth returns the number of network inputs accepted by NextAt.
func (c *Counter) InWidth() int { return c.net.InWidth() }

// OutputCounts returns how many values each output counter has handed out;
// in a quiescent state they satisfy the step property.
func (c *Counter) OutputCounts() []int64 { return c.net.CounterCounts() }

// Timing is the paper's measure: bounds [C1, C2] on link-traversal time.
// See internal/core for the full derivations.
type Timing = core.Timing

// Report is a linearizability analysis (Definition 2.4 of the paper).
type Report = lincheck.Report

// AnalyzeOps computes the non-linearizability report of a recorded
// execution.
func AnalyzeOps(ops []Op) Report { return lincheck.Analyze(ops) }

// Op is one timed counting operation.
type Op = lincheck.Op

// Monitor timestamps operations against the monotonic clock and reports
// linearizability violations, the real-time analogue of the paper's
// simulator instrumentation.
type Monitor struct {
	rec  *lincheck.Recorder
	base time.Time
}

// NewMonitor returns a Monitor expecting about n operations.
func NewMonitor(n int) *Monitor {
	return &Monitor{rec: lincheck.NewRecorder(n), base: time.Now()}
}

// Observe times fn and records its returned value as one operation. Safe
// for concurrent use.
func (m *Monitor) Observe(fn func() int64) int64 {
	start := time.Since(m.base)
	v := fn()
	end := time.Since(m.base)
	m.rec.Record(int64(start), int64(end), v)
	return v
}

// Len returns the number of observed operations.
func (m *Monitor) Len() int { return m.rec.Len() }

// Report analyzes everything observed so far.
func (m *Monitor) Report() Report { return m.rec.Analyze() }

// Ops returns a copy of the observed operations.
func (m *Monitor) Ops() []Op { return m.rec.Ops() }
