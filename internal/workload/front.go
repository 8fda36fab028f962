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
	// FrontAdaptive is the adaptive front with its defaults: one
	// fetch-and-add on a padded word (ModeDirect).
	FrontAdaptive FrontKind = "shm-adaptive"
	// FrontAdaptiveLinear is the adaptive front built in its
	// guaranteed-linearizable waiting mode (ModeLinear, an shm.Filter).
	// A counter's mode is fixed when it is built, so it serves every token
	// there.
	FrontAdaptiveLinear FrontKind = "shm-adaptive-linear"
)

// Fronts lists every front-end, plain network first.
var Fronts = []FrontKind{FrontPlain, FrontCombine, FrontAdaptive, FrontAdaptiveLinear}

// Build returns the front-end of this kind over the compiled network n.
// reg, when non-nil, receives the combining funnel's metric family.
func (k FrontKind) Build(n *shm.Network, reg *obs.Registry) (shm.Front, error) {
	var opts adaptive.Options
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
// funnel's hit rate and dispositions, or the adaptive front's built mode
// and per-mode token tallies. It returns "" for the plain network, which
// has nothing beyond the run's own report.
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
		fmt.Fprintf(&b, "adaptive: built in %s, tokens direct/linear = %d/%d",
			st.Mode, st.PerMode[adaptive.ModeDirect], st.PerMode[adaptive.ModeLinear])
	}
	return b.String()
}
