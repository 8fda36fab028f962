// Package adaptive is an epoch-gated counter over two backends, each a
// mode. ModeDirect serves tokens from a single padded fetch-and-add
// counter, which is the fastest structure on every measured worker count
// (EXPERIMENTS.md E32). ModeLinear sends every token through the
// counting network and then holds its response until every smaller value
// in the epoch has been returned: the Herlihy-Shavit-Waarts waiting
// construction the paper contrasts against, and the engine's only
// linearizability guarantee. It holds in every execution, with no bound
// on c2/c1 assumed.
//
// The mode is chosen at construction (Options.LinearBelow > 0 selects
// ModeLinear) and changes only through SwitchTo. A switch preserves exact
// counting. Every token enters through a seqlock-style epoch gate: a
// switch closes the gate (odd value), waits for every in-flight token to
// drain, rolls the accounting epoch, swaps the backend, and reopens the
// gate (next even value). Each backend keeps a cumulative issue
// sequence, and a token's public value is
//
//	epoch.base + (backend sequence number - backend count at epoch start)
//
// so at every quiescent point the values handed out since creation form
// the gapless permutation 0..n-1 and therefore satisfy the step property
// on any output partition — the invariant the conformance harness checks
// differentially against the seven other engines. Because a switch only
// happens through a drained boundary, no interleaving can observe a
// half-switched structure.
package adaptive

import (
	"fmt"
	"sync"
	"sync/atomic"

	"countnet/internal/obs"
	"countnet/internal/shm"
	"countnet/internal/shm/backoff"
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
	// response until every smaller value issued in the epoch has been
	// returned: guaranteed linearizability, paid for by serializing
	// responses.
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

// stripes is the width of the striped in-flight census. Tokens add to the
// stripe hashed from their processor id, so the epoch gate's drain scan is
// the only place all stripes meet.
const stripes = 32

// Options configures a Counter.
type Options struct {
	// Window is ignored: the counter samples nothing. The field stays
	// so callers that still set it compile.
	Window int
	// LinearBelow, when positive, starts the counter in ModeLinear, so
	// the ordering guarantee holds from the first token. Its magnitude is
	// not read. Zero starts the counter in ModeDirect.
	LinearBelow int
	// Metrics, when non-nil, registers the adaptive metric family:
	// shm_adaptive_mode / _epoch gauges, shm_adaptive_switches_total,
	// and the live occupancy gauge.
	Metrics *obs.Registry
}

// EpochStat is the closed accounting record of one epoch.
type EpochStat struct {
	// Epoch is the epoch's sequence number, starting at 0.
	Epoch uint64
	// Mode is the structure that served the epoch.
	Mode Mode
	// Tokens is how many values the epoch handed out.
	Tokens int64
}

// Stats is a live snapshot of the counter.
type Stats struct {
	// Tokens is the total number of values handed out so far.
	Tokens int64
	// Mode is the current mode and Epoch the current epoch number.
	Mode  Mode
	Epoch uint64
	// Switches counts completed drain-then-switch transitions.
	Switches int64
	// PerMode tallies tokens by the mode that served them (closed epochs
	// plus the live one).
	PerMode [2]int64
}

// cacheLine is the coherence unit the Counter's hot words are laid out
// against.
const cacheLine = 64

// pad64 is an atomic counter that fills a whole cache line. It owns that
// line only when it also starts on a line boundary; Counter's layout
// guarantees that for every pad64 it holds.
type pad64 struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// epoch is the immutable state tokens read through the gate: the mode,
// the value base, and the backend serving it. A new epoch is installed
// only at a drained boundary, so its fields never change while visible.
type epoch struct {
	id   uint64
	mode Mode
	base int64 // values handed out before this epoch
	strt int64 // backend cumulative issue count at epoch start
}

// Counter is the adaptive front-end. Safe for concurrent use by any
// number of goroutines.
//
// Layout: every token reads gate and cur, and only a switch writes them,
// so the two share a line that no per-token write touches. Each census
// stripe and the direct counter start on line boundaries and fill their
// lines, and the turn starts on one with its next and parked words alone
// on it, so a token's RMWs invalidate no line another token reads. The
// allocator may start a Counter a few words past a line boundary (Go's
// malloc header), which shifts every word alike and keeps each hot word
// on a line of its own. TestCounterLayout pins this.
type Counter struct {
	// gate is a seqlock: even = open, odd = switching.
	gate     atomic.Int64          //countnet:gate
	cur      atomic.Pointer[epoch] //countnet:gated
	_        [cacheLine - 16]byte
	inflight [stripes]pad64 //countnet:gatecensus

	direct pad64 // the ModeDirect backend's cumulative sequence
	// turn is the ModeLinear release gate over raw backend values.
	// Reseeded from the epoch's backend start at every switch into a
	// linear epoch, which happens at a drained boundary, so no Release
	// ever races the reseed.
	turn shm.Turn
	net  *shm.Network

	// Switch state under switchMu: the epoch log.
	switchMu sync.Mutex //countnet:gatelock
	epochs   []EpochStat
	switches atomic.Int64

	// Registry gauges; never nil — New substitutes unregistered no-ops.
	modeGauge  *obs.Gauge //countnet:allow obsvet -- never nil; New substitutes an unregistered no-op
	epochGauge *obs.Gauge //countnet:allow obsvet -- never nil; New substitutes an unregistered no-op
}

// New returns an adaptive counter over the compiled network, which backs
// ModeLinear; the direct counter is created internally. The counter
// starts in ModeDirect, or in ModeLinear when LinearBelow is positive.
func New(n *shm.Network, opts Options) (*Counter, error) {
	if n == nil {
		return nil, fmt.Errorf("adaptive: nil network")
	}
	if opts.LinearBelow < 0 {
		return nil, fmt.Errorf("adaptive: negative LinearBelow (%d)", opts.LinearBelow)
	}
	c := &Counter{net: n}
	if reg := opts.Metrics; reg != nil {
		c.modeGauge = reg.Gauge("shm_adaptive_mode")
		c.epochGauge = reg.Gauge("shm_adaptive_epoch")
		reg.GaugeFunc("shm_adaptive_switches_total", func() float64 {
			return float64(c.switches.Load())
		})
		reg.GaugeFunc("shm_adaptive_occupancy", func() float64 {
			return float64(c.census())
		})
	} else {
		c.modeGauge = &obs.Gauge{}
		c.epochGauge = &obs.Gauge{}
	}
	first := &epoch{mode: ModeDirect}
	if opts.LinearBelow > 0 {
		// The backend starts at zero, so the turn counter's zero value is
		// already correctly seeded.
		first = &epoch{mode: ModeLinear}
	}
	//countnet:allow gatevet -- the constructor publishes the first epoch before any reader exists, so no gate is needed
	c.cur.Store(first)
	return c, nil
}

// Mode returns the current mode.
//
//countnet:allow gatevet -- advisory snapshot; epochs are immutable once published, only their currency is racy
func (c *Counter) Mode() Mode { return c.cur.Load().mode }

// Epoch returns the current epoch number.
//
//countnet:allow gatevet -- advisory snapshot; epochs are immutable once published, only their currency is racy
func (c *Counter) Epoch() uint64 { return c.cur.Load().id }

// Next draws the next counter value: TraverseSpan with no parent span.
func (c *Counter) Next(input int, proc, tok int32, afterNode func(id topo.NodeID)) int64 {
	v, _ := c.TraverseSpan(input, proc, tok, 0, afterNode)
	return v
}

// TraverseSpan draws the next counter value, as an shm.Front. input
// selects the network input wire used in ModeLinear; proc identifies the
// calling worker (it stripes the in-flight census and trace identities)
// and tok its operation index; afterNode is the paper's W-delay injection
// hook, invoked once per visited node (once, with node -1, in ModeDirect,
// which has a single logical node). The span returned is the walk's last
// hop, or parent in ModeDirect.
//
//countnet:hotpath
func (c *Counter) TraverseSpan(input int, proc, tok int32, parent uint64, afterNode func(id topo.NodeID)) (int64, uint64) {
	slot, ep := c.enter(proc)
	raw, last := c.dispatch(ep, input, proc, tok, parent, afterNode)
	c.inflight[slot].v.Add(-1)
	return ep.base + raw - ep.strt, last
}

// enter passes the epoch gate: it registers the token in the striped
// in-flight census and returns the stripe index plus the epoch the token
// runs in. The gate is checked before the census increment, so once a
// switch has closed the gate, newly arriving tokens never touch the
// census — only the bounded set already past their first gate check can
// blip a stripe, which keeps the switcher's drain scan from being held
// nonzero forever by sustained arrivals. With sequentially consistent
// atomics, either the switcher's drain scan sees the increment (and waits
// for the token), or the re-check after the increment sees the odd gate
// (and the token backs out). Either way no token runs in a retired epoch.
//
// The common open-gate path is two gate loads, one cur load and one RMW,
// and it costs only that because of Counter's layout: gate and cur share
// a line that no token writes, so while the gate stays open the loads
// hit in every reader's cache, and the RMW lands on the caller's own
// stripe line. With a stripe (or any other per-token word) on the gate's
// line, every call by one client would miss on the other client's
// writes.
//
//countnet:hotpath
func (c *Counter) enter(proc int32) (int, *epoch) {
	slot := int(uint32(proc) % stripes)
	if c.gate.Load()&1 == 0 {
		c.inflight[slot].v.Add(1)
		if c.gate.Load()&1 == 0 {
			return slot, c.cur.Load()
		}
		c.inflight[slot].v.Add(-1)
	}
	var bo backoff.Backoff
	for {
		bo.Wait()
		if c.gate.Load()&1 == 0 {
			c.inflight[slot].v.Add(1)
			if c.gate.Load()&1 == 0 {
				return slot, c.cur.Load()
			}
			c.inflight[slot].v.Add(-1)
		}
	}
}

// dispatch routes one token through the epoch's structure and returns the
// backend's raw sequence value with the span the token's exit chains onto.
func (c *Counter) dispatch(ep *epoch, input int, proc, tok int32, parent uint64, afterNode func(id topo.NodeID)) (int64, uint64) {
	if ep.mode == ModeDirect {
		v := c.direct.v.Add(1) - 1
		if afterNode != nil {
			afterNode(-1)
		}
		return v, parent
	}
	// The turn wait runs inside dispatch — before TraverseSpan's census
	// decrement — so a waiting token, polling or parked, still counts as
	// in-flight and a concurrent drain waits for it. The drain always
	// terminates: with the gate closed the in-flight set is fixed, each
	// of its tokens obtains a distinct value from the contiguous backend
	// sequence, the holder of the smallest unreleased value never blocks,
	// and its release wakes the holder of the next value if that one has
	// parked — so the wake chain runs in value order until the census
	// reaches zero.
	v, last := c.net.TraverseSpan(input, proc, tok, parent, afterNode)
	return c.turn.Release(v), last
}

// census sums the striped in-flight counters. The value is approximate
// under concurrent traffic; the drain reads it with the gate closed.
func (c *Counter) census() int64 {
	var n int64
	for i := range c.inflight {
		n += c.inflight[i].v.Load()
	}
	return n
}

// backendTotal returns the cumulative issue count of the epoch's backend:
// the direct counter's value, or the network's. Exact only at a drained
// boundary, which is the only place the switcher reads it.
func (c *Counter) backendTotal(ep *epoch) int64 {
	if ep.mode == ModeDirect {
		return c.direct.v.Load()
	}
	return c.net.Issued()
}

// Stats returns a live snapshot. The per-mode tallies attribute the live
// epoch's tokens by its backend total, so they are exact at quiescence.
func (c *Counter) Stats() Stats {
	c.switchMu.Lock()
	defer c.switchMu.Unlock()
	ep := c.cur.Load()
	live := c.backendTotal(ep) - ep.strt
	s := Stats{
		Tokens:   ep.base + live,
		Mode:     ep.mode,
		Epoch:    ep.id,
		Switches: c.switches.Load(),
	}
	for _, e := range c.epochs {
		s.PerMode[e.Mode] += e.Tokens
	}
	s.PerMode[ep.mode] += live
	return s
}

// Epochs returns the closed epochs' accounting records. The live epoch is
// not included; roll it with SwitchTo first when a complete log is
// needed.
func (c *Counter) Epochs() []EpochStat {
	c.switchMu.Lock()
	defer c.switchMu.Unlock()
	return append([]EpochStat(nil), c.epochs...)
}

// SwitchTo forces a drain-then-switch transition into the given mode,
// rolling the accounting epoch even when the mode is unchanged (which
// makes it double as a drain point for tests and shutdown accounting).
// It must not be called from inside a Next or TraverseSpan call on the
// same goroutine — the drain would wait for the caller's own census entry.
func (c *Counter) SwitchTo(m Mode) error {
	if m < ModeDirect || m > ModeLinear {
		return fmt.Errorf("adaptive: unknown mode %d", int32(m))
	}
	c.switchMu.Lock()
	defer c.switchMu.Unlock()
	c.switchLocked(m)
	return nil
}

// switchLocked executes the drain-then-switch protocol into mode m.
// Caller holds switchMu.
//
//countnet:gateheld
func (c *Counter) switchLocked(m Mode) {
	old := c.cur.Load()
	c.gate.Add(1) // even -> odd: close the gate
	var bo backoff.Backoff
	for c.census() > 0 {
		bo.Wait()
	}
	// Drained: every token that entered epoch `old` has exited, so the
	// backend totals are exact and the step property holds on every
	// structure.
	issued := c.backendTotal(old) - old.strt
	c.epochs = append(c.epochs, EpochStat{
		Epoch: old.id, Mode: old.mode, Tokens: issued,
	})
	next := &epoch{
		id:   old.id + 1,
		mode: m,
		base: old.base + issued,
	}
	next.strt = c.backendTotal(next)
	if m == ModeLinear {
		// Seed the per-epoch turn: the first raw value the new epoch's
		// backend will issue is also the first allowed to return. The gate
		// is closed and the census drained, so no Release can race this.
		c.turn.Reseed(next.strt)
	}
	c.cur.Store(next)
	if old.mode != m {
		c.switches.Add(1)
	}
	c.modeGauge.Set(int64(m))
	c.epochGauge.Set(int64(next.id))
	c.gate.Add(1) // odd -> next even: reopen
}
