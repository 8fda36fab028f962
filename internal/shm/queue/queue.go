// Package queue implements the FIFO buffer application of counting
// networks (Aspnes-Herlihy-Shavit; the paper's introduction lists "FIFO
// buffers" among the structures built on linearizable counting): a bounded
// MPMC queue whose enqueue and dequeue tickets are drawn from two counting
// networks, eliminating the head/tail hot spots of a conventional ring.
//
// The queue inherits the counting networks' ordering: it is quiescently
// consistent (every item is delivered exactly once, and in quiescent states
// the order is FIFO) but not linearizable — under timing anomalies two
// items enqueued back-to-back by different producers can be delivered out
// of real-time order, exactly the phenomenon the paper's c2/c1 measure
// bounds.
package queue

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"countnet/internal/shm"
	"countnet/internal/topo"
)

// Queue is a bounded MPMC FIFO buffer. All methods are safe for concurrent
// use.
type Queue[T any] struct {
	enq   *shm.Network
	deq   *shm.Network
	cells []cell[T]
	cap   int64
}

// cell is one ring slot. turn advances 2 per generation: 2g means "empty,
// awaiting enqueue ticket of generation g"; 2g+1 means "full, awaiting
// dequeue ticket of generation g".
type cell[T any] struct {
	turn atomic.Int64
	val  T
	_    [40]byte
}

// New builds a queue of the given capacity whose tickets come from two
// counting networks built on g (one instance each for enqueue and
// dequeue). The capacity must be at least 1.
func New[T any](g *topo.Graph, capacity int, opts shm.Options) (*Queue[T], error) {
	if capacity < 1 {
		return nil, fmt.Errorf("queue: capacity %d", capacity)
	}
	enq, err := shm.Compile(g, opts)
	if err != nil {
		return nil, err
	}
	deq, err := shm.Compile(g, opts)
	if err != nil {
		return nil, err
	}
	return &Queue[T]{
		enq:   enq,
		deq:   deq,
		cells: make([]cell[T], capacity),
		cap:   int64(capacity),
	}, nil
}

// Enqueue appends v, blocking while the queue is full. Enqueue and
// Dequeue enter their network at the calling processor's home input
// (shm.Network.Home), so no shared word sits in front of the network.
func (q *Queue[T]) Enqueue(v T) {
	t := q.enq.Traverse(q.enq.Home())
	c := &q.cells[t%q.cap]
	gen := t / q.cap
	for spins := 0; c.turn.Load() != 2*gen; spins++ {
		if spins%64 == 63 {
			runtime.Gosched()
		}
	}
	c.val = v
	c.turn.Store(2*gen + 1)
}

// Dequeue removes and returns the oldest item, blocking while the queue is
// empty.
func (q *Queue[T]) Dequeue() T {
	t := q.deq.Traverse(q.deq.Home())
	c := &q.cells[t%q.cap]
	gen := t / q.cap
	for spins := 0; c.turn.Load() != 2*gen+1; spins++ {
		if spins%64 == 63 {
			runtime.Gosched()
		}
	}
	v := c.val
	var zero T
	c.val = zero
	c.turn.Store(2 * (gen + 1))
	return v
}

// Cap returns the queue capacity.
func (q *Queue[T]) Cap() int { return int(q.cap) }
