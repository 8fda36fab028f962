package topo

import "fmt"

// cloneBalancers rebuilds g's balancers (not its counters) inside b, with
// network input i of g fed by feeds[i]. It returns the wires that fed g's
// counters, in output order. The clones are numbered in g's breadthOrder.
func cloneBalancers(b *Builder, g *Graph, feeds []Out) ([]Out, error) {
	if len(feeds) != g.InWidth() {
		return nil, fmt.Errorf("topo: %d feeds for %d inputs", len(feeds), g.InWidth())
	}
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

// Cascade composes two balancing networks in series: output Y_i of `first`
// feeds network input i of `second`. The cascade of two counting networks
// is a counting network (the first's quiescent outputs satisfy the step
// property, which the second preserves), and the cascade of uniform
// networks is uniform when the first's depth is well-defined.
func Cascade(first, second *Graph) (*Graph, error) {
	if first == nil || second == nil {
		return nil, fmt.Errorf("topo: cascade of nil graph")
	}
	if first.OutWidth() != second.InWidth() {
		return nil, fmt.Errorf("topo: cascade width mismatch: %d outputs into %d inputs",
			first.OutWidth(), second.InWidth())
	}
	b := NewBuilder()
	ins := b.Inputs(first.InWidth())
	mid, err := cloneBalancers(b, first, ins)
	if err != nil {
		return nil, err
	}
	out, err := cloneBalancers(b, second, mid)
	if err != nil {
		return nil, err
	}
	b.Terminate(out)
	return b.Build()
}
