// Package adaptive is the fixed-mode counter front behind the
// shm-adaptive engines. Its mode is chosen at construction and never
// changes. ModeDirect serves tokens from a single padded fetch-and-add
// word, which is the fastest structure on every measured worker count
// (EXPERIMENTS.md E32). ModeLinear is shm.Filter: every token traverses
// the counting network and then holds its response until every smaller
// value has been returned, the Herlihy-Shavit-Waarts waiting
// construction the paper contrasts against and the engine's only
// linearizability guarantee. It holds in every execution, with no bound
// on c2/c1 assumed.
//
// Either way the values handed out form the gapless permutation 0..n-1
// at every quiescent point, and therefore satisfy the step property on
// any output partition — the invariant the conformance harness checks
// differentially against the seven other engines.
package adaptive

import (
	"fmt"
	"sync/atomic"

	"countnet/internal/shm"
	"countnet/internal/topo"
)

// Mode names one of the two counting structures.
type Mode int32

// The modes.
const (
	// ModeDirect serves tokens from a single padded fetch-and-add
	// counter.
	ModeDirect Mode = iota
	// ModeLinear sends every token through the network and then holds its
	// response until every smaller value has been returned: guaranteed
	// linearizability, paid for by serializing responses.
	ModeLinear
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeDirect:
		return "direct"
	case ModeLinear:
		return "linear"
	default:
		return fmt.Sprintf("mode(%d)", int32(m))
	}
}

// Options configures a Counter.
type Options struct {
	// Window is ignored: the counter samples nothing. The field stays
	// so callers that still set it compile.
	Window int
	// LinearBelow, when positive, builds the counter in ModeLinear, so
	// the ordering guarantee holds from the first token. Its magnitude is
	// not read. Zero builds the counter in ModeDirect.
	LinearBelow int
}

// Stats is a live snapshot of the counter.
type Stats struct {
	// Tokens is the total number of values handed out so far.
	Tokens int64
	// Mode is the mode the counter was built in.
	Mode Mode
	// PerMode tallies tokens by the mode that served them: all of them
	// under Mode.
	PerMode [2]int64
}

// cacheLine is the coherence unit the direct word is laid out against.
const cacheLine = 64

// word is a counter that fills a whole cache line. Allocated on its own
// it comes from the allocator's 64-byte size class, whose objects start
// on line boundaries, so it owns its line wherever it lands.
type word struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Counter is the fixed-mode front. Safe for concurrent use by any number
// of goroutines. Exactly one of direct and linear is set; a token reads
// mode and that pointer, which no token writes.
type Counter struct {
	mode   Mode
	direct *word       // ModeDirect's fetch-and-add word
	linear *shm.Filter // ModeLinear's walk and turn
}

// New returns a counter over the compiled network, which backs
// ModeLinear. The counter is built in ModeDirect, or in ModeLinear when
// LinearBelow is positive.
func New(n *shm.Network, opts Options) (*Counter, error) {
	if n == nil {
		return nil, fmt.Errorf("adaptive: nil network")
	}
	if opts.LinearBelow < 0 {
		return nil, fmt.Errorf("adaptive: negative LinearBelow (%d)", opts.LinearBelow)
	}
	if opts.LinearBelow > 0 {
		return &Counter{mode: ModeLinear, linear: shm.NewFilter(n)}, nil
	}
	return &Counter{mode: ModeDirect, direct: new(word)}, nil
}

// Next draws the next counter value: TraverseSpan with no parent span.
func (c *Counter) Next(input int, proc, tok int32, afterNode func(id topo.NodeID)) int64 {
	v, _ := c.TraverseSpan(input, proc, tok, 0, afterNode)
	return v
}

// TraverseSpan draws the next counter value, as an shm.Front. input
// selects the network input wire used in ModeLinear; proc identifies the
// calling worker and tok its operation index; afterNode is the paper's
// W-delay injection hook, invoked once per visited node (once, with node
// -1, in ModeDirect, which has a single logical node). The span returned
// is the walk's last hop, or parent in ModeDirect.
//
//countnet:hotpath
func (c *Counter) TraverseSpan(input int, proc, tok int32, parent uint64, afterNode func(id topo.NodeID)) (int64, uint64) {
	if c.mode == ModeLinear {
		return c.linear.TraverseSpan(input, proc, tok, parent, afterNode)
	}
	v := c.direct.v.Add(1) - 1
	if afterNode != nil {
		afterNode(-1)
	}
	return v, parent
}

// Stats returns a live snapshot, exact at quiescence.
func (c *Counter) Stats() Stats {
	var n int64
	if c.mode == ModeLinear {
		n = c.linear.Returned()
	} else {
		n = c.direct.v.Load()
	}
	s := Stats{Tokens: n, Mode: c.mode}
	s.PerMode[c.mode] = n
	return s
}

// SwitchTo returns nil when m is the mode the counter was built in,
// since there is nothing to drain, and an error for any other mode. It
// remains only for the benchmark's switch.drain_* row (bench/layers.go),
// which ROADMAP.md item 3 deletes.
func (c *Counter) SwitchTo(m Mode) error {
	if m != c.mode {
		return fmt.Errorf("adaptive: counter built in %v cannot switch to %v", c.mode, m)
	}
	return nil
}
