package shm

import "countnet/internal/topo"

// TraverseBatch routes demand tokens from the given input as one
// combined trip and returns their counter values (in exit order, not
// sorted); see walk for why this is operationally identical to demand
// sequential tokens. afterNode is invoked once per node the group (or a
// part of it) leaves, as in TraverseSpan; proc and tok identify the
// representative in trace events when observability is enabled, and the
// group's first hop chains onto parent, as in TraverseSpan. A
// non-positive demand returns nil.
//
//countnet:hotpath
func (n *Network) TraverseBatch(input, demand int, proc, tok int32, parent uint64, afterNode func(id topo.NodeID)) []int64 {
	if demand <= 0 {
		return nil
	}
	t := trip{o: n.obs, proc: proc, tok: tok, span: parent, afterNode: afterNode}
	return n.walk(n.g.Input(input).Node, demand, &t, make([]int64, 0, demand))
}
