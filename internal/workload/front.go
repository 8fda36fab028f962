package workload

import (
	"fmt"
	"strings"

	"countnet/internal/obs"
	"countnet/internal/shm"
	"countnet/internal/shm/adaptive"
	"countnet/internal/shm/combine"
)

// FrontKind names a shared-memory front-end: the object that hands a
// token its value. The names are the shm engine names of the conformance
// corpus and of `stress -engine`.
type FrontKind string

// The shm front-ends. The zero value is FrontPlain.
const (
	// FrontPlain is the bare counting network: every token walks it.
	FrontPlain FrontKind = "shm"
	// FrontCombine puts the elimination/combining funnel in front of the
	// network.
	FrontCombine FrontKind = "shm-combine"
	// FrontAdaptive is the adaptive engine with its defaults: the epoch
	// gate over the direct fetch-and-add counter (ModeDirect).
	FrontAdaptive FrontKind = "shm-adaptive"
	// FrontAdaptiveLinear is the adaptive engine built in its
	// guaranteed-linearizable waiting mode (ModeLinear). Nothing but
	// SwitchTo changes a counter's mode, so it serves every token there.
	FrontAdaptiveLinear FrontKind = "shm-adaptive-linear"
)

// Fronts lists every front-end, plain network first.
var Fronts = []FrontKind{FrontPlain, FrontCombine, FrontAdaptive, FrontAdaptiveLinear}

// Build returns the front-end of this kind over the compiled network n.
// reg, when non-nil, receives the front-end's metric family.
func (k FrontKind) Build(n *shm.Network, reg *obs.Registry) (shm.Front, error) {
	opts := adaptive.Options{Metrics: reg}
	switch k {
	case "", FrontPlain:
		return n, nil
	case FrontCombine:
		return combine.Front{Funnel: combine.New(combine.Options{Metrics: reg}), Net: n}, nil
	case FrontAdaptive:
	case FrontAdaptiveLinear:
		opts.LinearBelow = 1
	default:
		return nil, fmt.Errorf("workload: unknown front-end %q", k)
	}
	c, err := adaptive.New(n, opts)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// FrontReport summarizes what a front-end did over a run in one line: the
// funnel's hit rate and dispositions, or the adaptive engine's final
// mode, switch count, per-mode tallies and mode history. It returns ""
// for the plain network, which has nothing beyond the run's own report.
func FrontReport(front shm.Front) string {
	var b strings.Builder
	switch f := front.(type) {
	case combine.Front:
		c := f.Stats()
		deg := 0.0
		if c.Pairs > 0 {
			deg = 1 + float64(c.Partners)/float64(c.Pairs)
		}
		fmt.Fprintf(&b, "combine: hit rate %.2f, %d combined walks (avg degree %.1f), %d partners, %d timeouts, %d idle, %d races",
			c.HitRate(), c.Pairs, deg, c.Partners, c.Timeouts, c.Idle, c.Races)
	case *adaptive.Counter:
		st := f.Stats()
		fmt.Fprintf(&b, "adaptive: ended in %s after %d switches, tokens direct/linear = %d/%d",
			st.Mode, st.Switches, st.PerMode[adaptive.ModeDirect], st.PerMode[adaptive.ModeLinear])
		if eps := f.Epochs(); len(eps) > 0 {
			b.WriteString("; mode history:")
			live := st.Tokens
			for _, e := range eps {
				fmt.Fprintf(&b, " %s×%d", e.Mode, e.Tokens)
				live -= e.Tokens
			}
			fmt.Fprintf(&b, " %s×%d(live)", st.Mode, live)
		}
	}
	return b.String()
}
