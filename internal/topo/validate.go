package topo

// computeLayers assigns 1-based layers by longest distance from the network
// inputs, records per-layer node lists, the network depth, and whether the
// network is uniform in the sense of Definition 2.1: every node lies on an
// input-to-output path (guaranteed by the Builder) and all such paths have
// equal length, which holds exactly when every node's predecessors share a
// single layer and all counters land on the same layer. Ids are topological
// (see Builder), so one pass in id order sees each node after its sources.
func (g *Graph) computeLayers() {
	uniform := true
	for id := range g.nodes {
		n := &g.nodes[id]
		lo, hi := int32(-1), int32(-1)
		for _, s := range g.ins(n) {
			var l int32
			if s.IsInput() {
				l = 0
			} else {
				l = g.nodes[s.Node].layer
			}
			if lo == -1 || l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
		if lo != hi {
			uniform = false
		}
		n.layer = hi + 1
	}
	counterLayer := -1
	for _, c := range g.counters {
		l := int(g.nodes[c].layer)
		if counterLayer == -1 {
			counterLayer = l
		} else if l != counterLayer {
			uniform = false
			if l > counterLayer {
				counterLayer = l
			}
		}
	}
	g.depth = counterLayer - 1
	g.uniform = uniform
	// Layer l's ids share one array: all[end[l-1]:end[l]].
	end := make([]int, counterLayer+1)
	for id := range g.nodes {
		end[g.nodes[id].layer]++
	}
	for l := 1; l <= counterLayer; l++ {
		end[l] += end[l-1]
	}
	all := make([]NodeID, len(g.nodes))
	g.layers = make([][]NodeID, counterLayer)
	for i := range g.layers {
		g.layers[i] = all[end[i]:end[i]:end[i+1]]
	}
	for id := range g.nodes {
		i := g.nodes[id].layer - 1
		g.layers[i] = append(g.layers[i], NodeID(id))
	}
}

// breadthOrder returns g's balancers first in, first out: the balancers fed
// only by network inputs in id order, then each balancer once all of its
// source balancers are listed. It fixes Encode's bytes and the node ids of
// padded and cascaded networks, and differs from id order (for bitonic and
// periodic networks of width 4 and more, for instance). Builder ids are
// topological, so it needs no cycle check.
func (g *Graph) breadthOrder() []NodeID {
	waiting := make([]int, len(g.nodes)) // source balancers not yet listed
	order := make([]NodeID, 0, g.NumBalancers())
	for id := range g.nodes {
		for _, s := range g.ins(&g.nodes[id]) {
			if !s.IsInput() {
				waiting[id]++
			}
		}
		if waiting[id] == 0 && g.nodes[id].kind == KindBalancer {
			order = append(order, NodeID(id))
		}
	}
	for i := 0; i < len(order); i++ {
		for _, dst := range g.outs(&g.nodes[order[i]]) {
			if waiting[dst.Node]--; waiting[dst.Node] == 0 && g.nodes[dst.Node].kind == KindBalancer {
				order = append(order, dst.Node)
			}
		}
	}
	return order
}
