// The hysteretic regime controller. It runs on whichever worker
// goroutine happens to close a sampling window (there is no background
// thread — an idle counter makes no decisions), reads the window's mean
// occupancy and the funnel's CAS-failure rate once each, and hands them
// to decide, a pure function of those signals and the controller's
// hysteresis state. A drain-then-switch runs only once hold consecutive
// windows have cast the same vote. Escalation and de-escalation use
// different thresholds (the de-escalation edge is half the escalation
// edge), so a load sitting exactly on a boundary cannot make the counter
// flap.
package adaptive

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
)

// policy is everything decide reads besides the window: the fixed
// thresholds plus the guaranteed-ordering band.
type policy struct {
	hold                  int
	directMax, combineMax float64
	linearBelow           float64 // 0: the guaranteed-ordering band is off
}

// newPolicy returns the policy for a counter built with opts.
func newPolicy(opts Options) policy {
	return policy{
		hold:        hold,
		directMax:   directMax,
		combineMax:  combineMax,
		linearBelow: float64(opts.LinearBelow),
	}
}

// window is one sampling window's signals.
type window struct {
	occ   float64 // mean in-flight census over the window's samples
	races float64 // funnel CAS failures per funnel token in the window
}

// hysteresis is the controller's memory between windows.
type hysteresis struct {
	want  Mode // regime the last disagreeing window voted for
	agree int  // consecutive windows voting for want
}

// decide maps one window to the regime the controller wants and says
// whether to switch to it now. mode is the live epoch's regime.
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
// Any vote that differs from the live mode counts towards the hold run;
// a vote for the live mode resets it.
func decide(p policy, h hysteresis, mode Mode, w window) (hysteresis, Mode, bool) {
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
	if want == mode {
		return hysteresis{}, want, false
	}
	if want == h.want && h.agree > 0 {
		h.agree++
	} else {
		h = hysteresis{want: want, agree: 1}
	}
	if h.agree < p.hold {
		return h, want, false
	}
	return hysteresis{}, want, true
}

// control closes one sampling window and maybe switches regime. Called
// from TraverseSpan after the triggering token has left the in-flight
// census — never before, or the drain below would wait for the caller
// itself.
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
	w := window{occ: float64(sum) / float64(n), races: c.raceRate()}
	var m Mode
	var now bool
	c.hyst, m, now = decide(c.pol, c.hyst, ep.mode, w)
	if !now {
		return
	}
	c.switchMu.Lock()
	defer c.switchMu.Unlock()
	// Re-read under switchMu: a forced SwitchTo may have landed between
	// the vote and here, and a stale transition must not undo it.
	if c.cur.Load().id == ep.id {
		c.switchLocked(m)
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
