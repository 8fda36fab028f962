package countnet

import (
	"fmt"
	"time"

	"countnet/internal/shm"
	"countnet/internal/shm/queue"
	"countnet/internal/shm/stack"
)

// Queue is a bounded MPMC FIFO buffer whose enqueue and dequeue tickets are
// drawn from two counting networks — the "FIFO buffers" application the
// paper's introduction lists for linearizable counting. It is quiescently
// consistent: every item is delivered exactly once, but under timing
// anomalies two items enqueued back-to-back by different producers can be
// delivered out of real-time order, exactly the phenomenon the c2/c1
// measure bounds.
type Queue[T any] struct {
	q *queue.Queue[T]
}

// NewQueue builds a queue of the given capacity whose tickets come from
// counting networks with topology t (one instance each for enqueue and
// dequeue).
func NewQueue[T any](t Topology, capacity int, opts ...CounterOption) (*Queue[T], error) {
	if !t.Valid() {
		return nil, errZeroTopology
	}
	q, err := queue.New[T](t.g, capacity, buildOptions(opts))
	if err != nil {
		return nil, err
	}
	return &Queue[T]{q: q}, nil
}

// Enqueue appends v, blocking while the queue is full.
func (q *Queue[T]) Enqueue(v T) { q.q.Enqueue(v) }

// Dequeue removes and returns the oldest item, blocking while the queue is
// empty.
func (q *Queue[T]) Dequeue() T { return q.q.Dequeue() }

// Cap returns the queue capacity.
func (q *Queue[T]) Cap() int { return q.q.Cap() }

// Stack is a lock-free LIFO with elimination backoff, after Shavit and
// Touitou's elimination trees (the collision idea behind the paper's
// diffracting prisms): contended push/pop pairs cancel in an elimination
// array without touching the stack top.
type Stack[T any] struct {
	s *stack.Stack[T]
}

// NewStack returns a stack with an elimination array of `width` slots and
// the given collision window.
func NewStack[T any](width int, window time.Duration) *Stack[T] {
	return &Stack[T]{s: stack.New[T](width, window)}
}

// Push adds v to the stack.
func (s *Stack[T]) Push(v T) { s.s.Push(v) }

// Pop removes and returns the most recently pushed value; ok is false when
// the stack is empty.
func (s *Stack[T]) Pop() (v T, ok bool) { return s.s.Pop() }

// Eliminated returns how many operations completed by pairwise elimination
// rather than through the stack top.
func (s *Stack[T]) Eliminated() int64 { return s.s.Eliminated() }

// Len walks the stack; it is only meaningful in quiescent states.
func (s *Stack[T]) Len() int { return s.s.Len() }

// LinearizableCounter is a counting network wrapped in a waiting filter, in
// the spirit of the Herlihy-Shavit-Waarts linearizable counting
// constructions the paper contrasts against: a value is returned only after
// every smaller value has been returned, so the counter is linearizable in
// every execution — at the serialization cost the paper argues is usually
// not worth paying ("an unnecessary burden on applications that are willing
// to trade-off occasional non-linearizability for speed and parallelism").
type LinearizableCounter struct {
	f   *shm.Filter
	net *shm.Network
}

// NewLinearizableCounter compiles t and wraps it in the waiting filter.
func NewLinearizableCounter(t Topology, opts ...CounterOption) (*LinearizableCounter, error) {
	if !t.Valid() {
		return nil, errZeroTopology
	}
	net, err := shm.Compile(t.g, buildOptions(opts))
	if err != nil {
		return nil, err
	}
	return &LinearizableCounter{f: shm.NewFilter(net), net: net}, nil
}

// Next draws the next value; values are returned in exactly increasing
// real-time order across all goroutines.
func (c *LinearizableCounter) Next() int64 {
	return c.f.Traverse(c.net.Home())
}

// NextAt draws the next value entering at a specific network input.
func (c *LinearizableCounter) NextAt(input int) (int64, error) {
	if input < 0 || input >= c.net.InWidth() {
		return 0, fmt.Errorf("countnet: input %d out of range [0,%d)", input, c.net.InWidth())
	}
	return c.f.Traverse(input), nil
}

// buildOptions applies opts to the runtime's default shm.Options. The
// options write through a pointer, which moves the options to the heap,
// so a build with no options returns the defaults before they exist and
// allocates nothing here.
func buildOptions(opts []CounterOption) shm.Options {
	if len(opts) == 0 {
		return shm.Options{}
	}
	var o shm.Options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}
