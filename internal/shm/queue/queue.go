// Package queue implements the FIFO buffer application of counting
// networks (Aspnes-Herlihy-Shavit; the paper's introduction lists "FIFO
// buffers" among the structures built on linearizable counting): a bounded
// MPMC queue whose enqueue and dequeue tickets are drawn from two counting
// networks, eliminating the head/tail hot spots of a conventional ring.
//
// Every ring cell is an shm.Turn, the Herlihy-Shavit-Waarts wait that
// also serializes the linearizable filter: the enqueuer of generation g
// takes the cell's turn 2g and its dequeuer turn 2g+1. A blocked
// operation (a dequeue on an empty cell, an enqueue on a full one) polls
// and yields on the turn's ladder, then parks until the operation
// before it on the cell passes the turn.
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

// cell is one ring slot. Its turn advances 2 per generation: 2g means
// "empty, awaiting the enqueue ticket of generation g"; 2g+1 means "full,
// awaiting the dequeue ticket of generation g". The padding makes the
// cell of a word-sized T exactly two cache lines, so in a line-aligned
// ring the value written under a turn never shares a line with a
// turn's polled words.
type cell[T any] struct {
	turn shm.Turn
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
	turn := 2 * (t / q.cap)
	c.turn.Wait(turn)
	c.val = v
	c.turn.Pass(turn)
}

// Dequeue removes and returns the oldest item, blocking while the queue is
// empty.
func (q *Queue[T]) Dequeue() T {
	t := q.deq.Traverse(q.deq.Home())
	c := &q.cells[t%q.cap]
	turn := 2*(t/q.cap) + 1
	c.turn.Wait(turn)
	v := c.val
	var zero T
	c.val = zero
	c.turn.Pass(turn)
	return v
}

// Cap returns the queue capacity.
func (q *Queue[T]) Cap() int { return int(q.cap) }
