package shm

import "countnet/internal/topo"

// Each toggle kind routes several tokens in one critical section:
// TraverseBatch advances the toggle demand times, adding one to counts[p]
// for every token routed to output p. counts must have at least fanOut
// entries and is not cleared. The routing is exactly the routing of
// demand back-to-back Traverse calls, so batch traversal preserves the
// step property verbatim.

func (b *atomicBalancer) TraverseBatch(demand int, counts []int) {
	p := (b.c.Add(int64(demand)) - int64(demand)) % b.fanOut
	for i := 0; i < demand; i++ {
		counts[p]++
		if p++; p == b.fanOut {
			p = 0
		}
	}
}

func (b *mutexBalancer) TraverseBatch(demand int, counts []int) {
	//countnet:allow hotvet -- KindMutex is the deliberately blocking textbook toggle, kept as the measurement baseline
	b.mu.Lock()
	for i := 0; i < demand; i++ {
		counts[b.toggle]++
		if b.toggle++; b.toggle == b.fanOut {
			b.toggle = 0
		}
	}
	b.mu.Unlock()
}

// TraverseBatch always queues, and advances the toggle inside its critical
// section with the holder's compare-and-swap, once per token.
func (b *mcsBalancer) TraverseBatch(demand int, counts []int) {
	n := nodes.Get()
	b.lock.Acquire(n)
	for i := 0; i < demand; i++ {
		counts[b.advance()]++
	}
	b.lock.Release(n)
	nodes.Put(n)
}

// batchRoute routes demand tokens through b into counts: one critical
// section for the batch-capable toggle kinds, sequential Traverse calls
// otherwise (diffracting balancers, whose prism pairing is per-token).
// The switch names the concrete kinds rather than asserting an interface
// so that counts, the walk's stack-held tally, never passes through an
// interface call and so never escapes to the heap.
func batchRoute(b Balancer, demand int, counts []int) {
	switch bb := b.(type) {
	case *atomicBalancer:
		bb.TraverseBatch(demand, counts)
	case *mutexBalancer:
		bb.TraverseBatch(demand, counts)
	case *mcsBalancer:
		bb.TraverseBatch(demand, counts)
	default:
		for i := 0; i < demand; i++ {
			counts[b.Traverse()]++
		}
	}
}

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
