package topo

// breadthOrder returns g's balancers first in, first out: the balancers fed
// only by network inputs in id order, then each balancer once all of its
// source balancers are listed. It fixes Encode's bytes and the node ids of
// padded and cascaded networks, and differs from id order (for bitonic and
// periodic networks of width 4 and more, for instance). Builder ids are
// topological, so it needs no cycle check.
func (g *Graph) breadthOrder() []NodeID {
	nb := NodeID(g.NumBalancers())
	waiting := make([]int, len(g.nodes)) // source balancers not yet listed
	order := make([]NodeID, 0, nb)
	for id := range nb {
		for _, s := range g.ins(&g.nodes[id]) {
			if !s.IsInput() {
				waiting[id]++
			}
		}
		if waiting[id] == 0 {
			order = append(order, id)
		}
	}
	for i := 0; i < len(order); i++ {
		for _, dst := range g.outs(&g.nodes[order[i]]) {
			if waiting[dst.Node]--; waiting[dst.Node] == 0 && dst.Node < nb {
				order = append(order, dst.Node)
			}
		}
	}
	return order
}
