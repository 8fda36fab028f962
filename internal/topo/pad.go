package topo

import "fmt"

// Pad returns a copy of g whose every network input is prefixed by a path of
// `length` one-input one-output balancers, the construction of Corollary
// 3.12: given c2 < k*c1 for a known k >= 2, padding a depth-h uniform
// counting network with h*(k-2) pass-through nodes per input yields a
// linearizable uniform counting network of depth h*(k-1).
//
// length == 0 returns an identical copy.
func Pad(g *Graph, length int) (*Graph, error) {
	if length < 0 {
		return nil, fmt.Errorf("topo: negative padding length %d", length)
	}
	b := NewBuilder()
	ins := b.Inputs(g.InWidth())
	feeds := make([]Out, len(ins))
	for i, in := range ins {
		o := in
		for j := 0; j < length; j++ {
			o = b.Balancer11(o)
		}
		feeds[i] = o
	}
	term, err := cloneBalancers(b, g, feeds)
	if err != nil {
		return nil, err
	}
	b.Terminate(term)
	return b.Build()
}

// cloneBalancers rebuilds g's balancers (not its counters) inside b, with
// network input i of g fed by feeds[i]. It returns the wires that fed g's
// counters, in output order. The clones are numbered in g's breadthOrder.
func cloneBalancers(b *Builder, g *Graph, feeds []Out) ([]Out, error) {
	clone := make([]NodeID, len(g.nodes)) // clone[id] = id of g's node id in b
	wire := func(s Src) Out {
		if s.IsInput() {
			return feeds[s.Port]
		}
		return b.out(clone[s.Node], s.Port)
	}
	var ins []Out
	for _, id := range g.breadthOrder() {
		n := &g.nodes[id]
		ins = ins[:0]
		for _, s := range g.ins(n) {
			ins = append(ins, wire(s))
		}
		if clone[id] = b.balancer(ins, int(n.fanOut)); clone[id] == InvalidNode {
			return nil, b.err
		}
	}
	term := make([]Out, g.OutWidth())
	for i, c := range g.counters {
		term[i] = wire(g.InSrc(c, 0))
	}
	return term, nil
}
