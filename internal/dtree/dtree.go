// Package dtree constructs counting trees in the sense of Shavit and Zemach
// ("Diffracting Trees"): a complete binary tree of one-input two-output
// balancers whose w leaves are the output counters. The tree has depth
// log2(w) — less than any w-wire counting network — which is why Section 5
// of the paper observes a higher fraction of linearizability violations on
// trees ("less of a padding effect as implied by Theorem 3.6").
//
// The topology here is the *counting* structure; the diffracting "prism"
// optimization changes only how tokens pass each node, and is provided by
// the shm/prism package (real goroutines) and by the sim package's
// diffracting node model.
//
//countnet:deterministic
package dtree

import (
	"fmt"

	"countnet/internal/topo"
)

// New returns the counting tree with w leaves, which must be a power of two
// and at least 2. The tree has a single network input at the root.
//
// The leaf reached by toggle path b1 b2 ... bh from the root (bi = output
// port taken at level i) is output Y_j with j = b1 + 2*b2 + ... + 2^(h-1)*bh:
// the first toggle decides the lowest-order bit of the output index, so
// sequential tokens receive 0, 1, 2, ... in order.
func New(w int) (*topo.Graph, error) {
	return NewArity(w, 2)
}

// NewArity returns a counting tree of 1-input a-output balancers in the
// arbitrary-fan-out spirit of Aharonson and Attiya: w must be a positive
// power of the arity a >= 2. The depth is log_a(w) — trading node fan-out
// against depth, the knob Theorem 3.6's padding effect depends on.
//
// Leaf indexing generalizes the binary digit reversal: the toggle at level
// i contributes digit i (least significant first) of the leaf index in base
// a, so sequential tokens receive 0, 1, 2, ... in order.
func NewArity(w, arity int) (*topo.Graph, error) {
	if arity < 2 {
		return nil, fmt.Errorf("dtree: arity %d < 2", arity)
	}
	if !isPower(w, arity) {
		return nil, fmt.Errorf("dtree: width %d is not a positive power of arity %d", w, arity)
	}
	nb := (w - 1) / (arity - 1) // 1-input arity-output balancers
	b := topo.NewBuilder()
	b.Reserve(nb+w, nb+w, nb*arity)
	in := b.Inputs(1)
	// The leaves, then arity wires per level of the tree: the depth
	// log_arity(w) levels need at most w.
	wires := make([]topo.Out, 2*w)
	subtree(b, in[0], arity, w, 0, 1, wires[:w], wires[w:])
	b.Terminate(wires[:w])
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("dtree: width %d arity %d: %w", w, arity, err)
	}
	return g, nil
}

// isPower reports whether w = arity^k for some k >= 1.
func isPower(w, arity int) bool {
	if w < arity {
		return false
	}
	for w > 1 {
		if w%arity != 0 {
			return false
		}
		w /= arity
	}
	return true
}

// subtree wires the subtree of `width` leaves fed by in. Tokens taking
// output port p at this node extend their leaf index by p*stride; base is
// the index accumulated so far. The node's outputs go to the first arity
// wires of levels, and deeper levels use the rest.
func subtree(b *topo.Builder, in topo.Out, arity, width, base, stride int, leaves, levels []topo.Out) {
	if width == 1 {
		leaves[base] = in
		return
	}
	outs := levels[:arity]
	b.BalancerN([]topo.Out{in}, outs)
	for p, o := range outs {
		subtree(b, o, arity, width/arity, base+p*stride, stride*arity, leaves, levels[arity:])
	}
}
