// Package bitonic constructs the bitonic counting networks of Aspnes,
// Herlihy, and Shavit. Bitonic[w] counts on w wires with depth
// log2(w) * (log2(w)+1) / 2; it is the width-32 network evaluated in
// Section 5 of "Counting Networks are Practically Linearizable".
//
// The construction is the classic recursive one: Bitonic[2k] is two parallel
// Bitonic[k] networks followed by a Merger[2k]; Merger[2k] splits the even
// subsequence of its first input half and the odd subsequence of its second
// half into one Merger[k] (and the complementary subsequences into another)
// and recombines with a final row of balancers.
//
//countnet:deterministic
package bitonic

import (
	"fmt"

	"countnet/internal/topo"
)

// New returns the bitonic counting network of width w, which must be a
// power of two and at least 2.
func New(w int) (*topo.Graph, error) {
	if w < 2 || w&(w-1) != 0 {
		return nil, fmt.Errorf("bitonic: width %d is not a power of two >= 2", w)
	}
	b := topo.NewBuilder()
	nb := w / 2 * Depth(w) // 2-input 2-output balancers
	b.Reserve(nb+w, 2*nb+w, 2*nb)
	wires := b.Inputs(w)
	network(b, wires, make([]topo.Out, w))
	b.Terminate(wires)
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("bitonic: width %d: %w", w, err)
	}
	return g, nil
}

// Depth returns the depth of Bitonic[w]: log2(w)*(log2(w)+1)/2.
func Depth(w int) int {
	lg := log2(w)
	return lg * (lg + 1) / 2
}

// network wires Bitonic[len(in)] onto the wires in, replacing each with
// the network's output of the same index. tmp is scratch of len(in).
func network(b *topo.Builder, in, tmp []topo.Out) {
	n := len(in)
	if n == 1 {
		return
	}
	k := n / 2
	network(b, in[:k], tmp[:k])
	network(b, in[k:], tmp[k:])
	merger(b, in, tmp)
}

// merger wires Merger[len(in)] onto the wires in, in place: the first half
// of in carries one sequence with the step property, the second half
// another; the outputs satisfy the step property whenever the inputs do.
// tmp is scratch of len(in).
func merger(b *topo.Builder, in, tmp []topo.Out) {
	n := len(in)
	if n == 2 {
		in[0], in[1] = b.Balancer2(in[0], in[1])
		return
	}
	k := n / 2
	// tmp[:k] takes the even subsequence of x and the odd of x', tmp[k:]
	// the odd of x and the even of x'.
	for i := 0; i < k; i += 2 {
		tmp[i/2], tmp[k+i/2] = in[i], in[i+1]
		tmp[k/2+i/2], tmp[k+k/2+i/2] = in[k+i+1], in[k+i]
	}
	merger(b, tmp[:k], in[:k])
	merger(b, tmp[k:], in[k:])
	for i := 0; i < k; i++ {
		in[2*i], in[2*i+1] = b.Balancer2(tmp[i], tmp[k+i])
	}
}

func log2(w int) int {
	lg := 0
	for v := w; v > 1; v >>= 1 {
		lg++
	}
	return lg
}
