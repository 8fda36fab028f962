// Package periodic constructs the periodic counting network of Aspnes,
// Herlihy, and Shavit: log2(w) cascaded Block[w] networks, total depth
// log2(w)^2. Corollary 3.10 of the paper shows it, like the bitonic
// network, is linearizable whenever c2 <= 2*c1.
package periodic

import (
	"fmt"

	"countnet/internal/topo"
)

// New returns the periodic counting network of width w, which must be a
// power of two and at least 2.
func New(w int) (*topo.Graph, error) {
	if w < 2 || w&(w-1) != 0 {
		return nil, fmt.Errorf("periodic: width %d is not a power of two >= 2", w)
	}
	b := topo.NewBuilder()
	nb := w / 2 * Depth(w) // 2-input 2-output balancers
	b.Reserve(nb+w, 2*nb+w, 2*nb)
	wires := b.Inputs(w)
	for s := 0; s < log2(w); s++ {
		block(b, wires)
	}
	b.Terminate(wires)
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("periodic: width %d: %w", w, err)
	}
	return g, nil
}

// Depth returns the depth of Periodic[w]: log2(w)^2.
func Depth(w int) int {
	lg := log2(w)
	return lg * lg
}

// block wires one Block[len(in)] network onto the wires in, in place, the
// balancer analogue of the Dowd-Perl-Rudolph-Saks balanced merging block: a
// first layer of mirror balancers pairing wire i with wire n-1-i, followed
// by two parallel Block[n/2] networks on the halves.
func block(b *topo.Builder, in []topo.Out) {
	n := len(in)
	if n == 1 {
		return
	}
	for i := 0; i < n/2; i++ {
		in[i], in[n-1-i] = b.Balancer2(in[i], in[n-1-i])
	}
	block(b, in[:n/2])
	block(b, in[n/2:])
}

func log2(w int) int {
	lg := 0
	for v := w; v > 1; v >>= 1 {
		lg++
	}
	return lg
}
