// Package core implements the paper's primary contribution: a local timing
// measure for uniform counting networks — the ratio c2/c1 between the
// maximum and minimum link-traversal times — together with the
// linearizability bounds it yields (Section 3) and the padding transform of
// Corollary 3.12 that buys linearizability back for a known ratio bound.
//
// The measure is local to links and independent of network depth: any
// uniform counting network whatsoever is linearizable when c2 <= 2*c1
// (Corollary 3.9), and when c2 = k*c1 for k > 2, two operations separated in
// time by more than 2*h*(c2-c1) are still ordered (Lemma 3.7).
//
//countnet:deterministic
package core

import (
	"fmt"
	"math"
)

// Timing describes measured or assumed link-traversal time bounds: every
// link takes between C1 and C2 time units.
type Timing struct {
	C1 int64
	C2 int64
}

// Validate reports whether the timing bounds are sensible.
func (t Timing) Validate() error {
	if t.C1 <= 0 {
		return fmt.Errorf("core: c1 = %d, want > 0", t.C1)
	}
	if t.C2 < t.C1 {
		return fmt.Errorf("core: c2 = %d < c1 = %d", t.C2, t.C1)
	}
	return nil
}

// Ratio returns the measure c2/c1.
func (t Timing) Ratio() float64 { return float64(t.C2) / float64(t.C1) }

// Linearizable reports whether the Corollary 3.9 condition c2 <= 2*c1
// holds, under which every uniform counting network is linearizable in
// every execution, regardless of depth.
func (t Timing) Linearizable() bool { return t.C2 <= 2*t.C1 }

// FinishStartGap returns the Theorem 3.6 bound for a uniform network of
// depth h: if token T2 enters more than this long after token T1 exits,
// T2 returns a higher value. The gap is h*c2 - 2*h*c1; it is negative
// exactly when c2 < 2*c1, meaning even overlapping-by-less-than-the-slack
// operations stay ordered.
func (t Timing) FinishStartGap(h int) int64 {
	return int64(h)*t.C2 - 2*int64(h)*t.C1
}

// StartStartGap returns the Lemma 3.7 bound for a uniform network of depth
// h: if T2 enters more than 2*h*(c2-c1) after T1 entered, T2 returns a
// higher value. The paper shows this bound is tight.
func (t Timing) StartStartGap(h int) int64 {
	return 2 * int64(h) * (t.C2 - t.C1)
}

// K returns the smallest integer k with c2 <= k*c1 — the a-priori ratio
// bound used by the padding construction.
func (t Timing) K() int {
	return int((t.C2 + t.C1 - 1) / t.C1)
}

// PaddingLength returns the Corollary 3.12 prefix length for a depth-h
// uniform counting network under a known bound c2 < k*c1: prefixing each
// input with h*(k-2) one-input one-output balancers yields a linearizable
// network of depth h*(k-1). For k <= 2 no padding is needed.
func PaddingLength(h, k int) int {
	if k <= 2 {
		return 0
	}
	return h * (k - 2)
}

// PaddedDepth returns the depth of the padded network: h*(k-1) for k > 2.
func PaddedDepth(h, k int) int { return h + PaddingLength(h, k) }

// AvgRatio is the empirical measure reported in Figure 7 of the paper:
// (Tog + W) / Tog, where Tog is the average time a token waits before
// toggling a balancer and W the injected per-node delay. It estimates the
// average c2/c1 of the execution: a fast token's effective link time is
// about Tog, a delayed token's about Tog + W.
func AvgRatio(tog, w float64) float64 {
	if tog <= 0 {
		return math.Inf(1)
	}
	return (tog + w) / tog
}
