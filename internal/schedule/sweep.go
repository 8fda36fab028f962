package schedule

import (
	"fmt"

	"countnet/internal/topo"
)

// GapPoint is one cell of a separation sweep: with consecutive token starts
// separated by Frac * (2h(c2-c1)), the fraction of ordered-pair inversions
// observed over all trials.
type GapPoint struct {
	Frac       float64
	Pairs      int // ordered (non-overlapping, gap-separated) pairs checked
	Inversions int // pairs returning out-of-order values
}

// GapSweep quantifies the tightness of Lemma 3.7 empirically: it runs
// trials of `tokens` tokens whose consecutive start times are separated by
// frac * StartStartGap for each frac, and counts value inversions among
// consecutive token pairs. Each trial alternates between two adversaries —
// per-token slow/fast alternation (a slow token followed by a fast
// overtaker, the Section 4 shape, violating up to gap ≈ h*(c2-c1), i.e.
// frac 0.5) and bimodal per-link delays — so the sweep exercises both the
// structured and the random ends. The lemma guarantees zero inversions for
// frac >= 1.
func GapSweep(g *topo.Graph, c1, c2 int64, fracs []float64, tokens, trials int, seed int64) ([]GapPoint, error) {
	if c1 <= 0 || c2 < c1 {
		return nil, fmt.Errorf("schedule: bad timing c1=%d c2=%d", c1, c2)
	}
	bound := 2 * int64(g.Depth()) * (c2 - c1)
	alternating := DelayFunc(func(tok, _ int) int64 {
		if tok%2 == 0 {
			return c2
		}
		return c1
	})
	out := make([]GapPoint, 0, len(fracs))
	for _, frac := range fracs {
		gap := int64(frac * float64(bound))
		if gap < 1 {
			gap = 1
		}
		pt := GapPoint{Frac: frac}
		for trial := 0; trial < trials; trial++ {
			arr := make([]Arrival, tokens)
			next := int64(0)
			for k := range arr {
				arr[k] = Arrival{Time: next, Input: k % g.InWidth()}
				next += gap
			}
			delays := Delays(alternating)
			if trial%2 == 1 {
				delays = Bimodal(c1, c2, 0.5, seed+int64(trial)*7919)
			}
			res, err := Run(g, arr, delays, Options{})
			if err != nil {
				return nil, err
			}
			for k := 1; k < tokens; k++ {
				pt.Pairs++
				if res.Ops[k].Value <= res.Ops[k-1].Value {
					pt.Inversions++
				}
			}
		}
		out = append(out, pt)
	}
	return out, nil
}
