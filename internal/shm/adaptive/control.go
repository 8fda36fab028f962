// The hysteretic regime controller. It runs on whichever worker
// goroutine happens to close a sampling window (there is no background
// thread — an idle counter makes no decisions), reads the window's mean
// occupancy, the funnel's CAS-failure rate and the (Tog+W)/Tog estimate
// once each, and hands them to decide, a pure function of those signals
// and the controller's hysteresis state. A drain-then-switch runs only
// once hold consecutive windows have cast the same vote. Escalation and
// de-escalation use different thresholds (the de-escalation edge is half
// the escalation edge), so a load sitting exactly on a boundary cannot
// make the counter flap.
package adaptive

import "math"

// The controller's fixed thresholds.
const (
	// hold is how many consecutive windows must agree on a regime change
	// before the switch happens (the hysteresis depth).
	hold = 2
	// directMax is the mean occupancy above which the direct counter
	// escalates to the combining funnel.
	directMax = 6
	// combineMax is the mean occupancy above which the funnel escalates
	// to the full network.
	combineMax = 48
	// raceMax is the funnel CAS-failure-per-token rate above which
	// combine escalates to the network regardless of occupancy.
	raceMax = 2.0
	// maxPadK caps the Corollary 3.12 padding factor so a wildly noisy
	// ratio estimate cannot compile an unboundedly deep prefix.
	maxPadK = 6
)

// policy is everything decide reads besides the window: the fixed
// thresholds plus the two Options that shape the vote.
type policy struct {
	hold                  int
	directMax, combineMax float64
	linearBelow           float64 // 0: the guaranteed-ordering band is off
	linearizable          bool
}

// newPolicy returns the policy for a counter built with opts.
func newPolicy(opts Options) policy {
	return policy{
		hold:         hold,
		directMax:    directMax,
		combineMax:   combineMax,
		linearBelow:  float64(opts.LinearBelow),
		linearizable: opts.Linearizable,
	}
}

// window is one sampling window's signals.
type window struct {
	occ   float64 // mean in-flight census over the window's samples
	races float64 // funnel CAS failures per funnel token in the window
	ratio float64 // the (Tog+W)/Tog estimate
}

// hysteresis is the controller's memory between windows.
type hysteresis struct {
	want  Mode // regime the last disagreeing window voted for
	agree int  // consecutive windows voting for want
}

// decide maps one window to the regime the controller wants and says
// whether to switch to it now. mode and padK describe the live epoch.
//
// The ladder escalates on mean occupancy — directMax collisions justify
// the funnel's rendezvous cost, combineMax justify the network's depth —
// and de-escalates only below half of each edge. In combine mode a
// CAS-failure rate above raceMax per token escalates regardless of
// occupancy: losing that many claim races means the slots themselves
// have become the hot spot the network exists to avoid. Within the
// ladder a linear epoch counts as its network-family cousin (it is the
// network, plus waiting).
//
// With a guaranteed-ordering band lb (Options.LinearBelow), ModeLinear
// replaces any combine or network vote while the occupancy makes waiting
// affordable: from direct or linear — the guaranteed family — the
// counter stays in the family below lb, and from combine or network it
// re-enters only below lb/2, the same split-edge hysteresis the ladder
// uses. Direct votes pass through: a single fetch-and-add is already
// linearizable.
//
// A network vote under the Linearizable option carries the Corollary
// 3.12 factor implied by ratio, so a ModeNetwork epoch whose padding has
// gone stale votes for a re-switch into the same mode. Any vote that
// differs from the live (mode, padK) counts towards the hold run; a vote
// for the live regime resets it.
func decide(p policy, h hysteresis, mode Mode, padK int, w window) (hysteresis, Mode, int, bool) {
	ladder := mode
	if ladder == ModeLinear {
		ladder = ModeNetwork
	}
	want := ModeDirect
	switch {
	case ladder == ModeCombine && w.races > raceMax, w.occ >= p.combineMax:
		want = ModeNetwork
	case w.occ >= p.directMax:
		want = ModeCombine
		if ladder == ModeNetwork && w.occ >= p.combineMax/2 {
			want = ModeNetwork // hysteresis band: not low enough to drop
		}
	case w.occ >= p.directMax/2 && ladder != ModeDirect:
		want = ModeCombine // hysteresis band: not low enough to go direct
	}
	if lb := p.linearBelow; lb > 0 && want != ModeDirect {
		inFamily := mode == ModeDirect || mode == ModeLinear
		if (inFamily && w.occ < lb) || w.occ < lb/2 {
			want = ModeLinear
		}
	}
	k := 1
	if want == ModeNetwork {
		k = p.padFor(w.ratio)
	}

	if want == mode && k == padK {
		return hysteresis{}, want, k, false
	}
	if want == h.want && h.agree > 0 {
		h.agree++
	} else {
		h = hysteresis{want: want, agree: 1}
	}
	if h.agree < p.hold {
		return h, want, k, false
	}
	return hysteresis{}, want, k, true
}

// padFor returns the Corollary 3.12 factor a ModeNetwork epoch should run
// under for the given (Tog+W)/Tog estimate: the smallest integer k with
// ratio <= k, capped at maxPadK; 1 (no padding) unless the Linearizable
// option is set and the estimate implies k > 2.
func (p policy) padFor(ratio float64) int {
	if !p.linearizable || math.IsInf(ratio, 1) || math.IsNaN(ratio) || ratio <= 2 {
		return 1
	}
	return int(math.Min(math.Ceil(ratio), maxPadK))
}

// control closes one sampling window and maybe switches regime. Called
// from Next after the triggering token has left the in-flight census —
// never before, or the drain below would wait for the caller itself.
// TryLock makes concurrent closers cheap: one worker arbitrates, the
// rest go back to counting.
//
//countnet:coldpath
func (c *Counter) control() {
	if !c.ctlMu.TryLock() {
		return
	}
	defer c.ctlMu.Unlock()
	n := c.occN.Swap(0)
	sum := c.occSum.Swap(0)
	if n == 0 {
		return
	}
	//countnet:allow gatevet -- controller snapshot only; the transition re-reads the epoch under switchMu before switching
	ep := c.cur.Load()
	w := window{occ: float64(sum) / float64(n), races: c.raceRate(), ratio: c.ratio.Value()}
	var m Mode
	var k int
	var now bool
	c.hyst, m, k, now = decide(c.pol, c.hyst, ep.mode, ep.padK, w)
	if !now {
		return
	}
	c.switchMu.Lock()
	defer c.switchMu.Unlock()
	// Re-read under switchMu: a forced SwitchTo may have landed between
	// the vote and here, and a stale transition must not undo it.
	if c.cur.Load().id == ep.id {
		c.switchLocked(m, k)
	}
}

// raceRate returns the funnel's CAS failures per token since the last
// call (0 when no tokens passed). Deltas, not totals: the controller
// judges the window, not the counter's whole history.
func (c *Counter) raceRate() float64 {
	st := c.funnel.Stats()
	dr := st.Races - c.lastRaces
	dt := st.Tokens - c.lastToks
	c.lastRaces = st.Races
	c.lastToks = st.Tokens
	if dt <= 0 {
		return 0
	}
	return float64(dr) / float64(dt)
}
