// Package shm is the real shared-memory runtime for balancing networks:
// goroutine-safe balancers (atomic, mutex, and MCS-queue-lock toggles, plus
// prism-diffracting balancers), compiled networks that goroutines traverse
// directly, and a stress driver with delay injection and real-time
// linearizability monitoring. It is the goroutines-as-processors
// counterpart of the cycle-level simulator in internal/sim.
package shm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"countnet/internal/shm/mcs"
	"countnet/internal/shm/prism"
)

// Balancer routes one token to an output port, preserving the step property
// on the node's outputs. Implementations are safe for concurrent use.
type Balancer interface {
	Traverse() int
}

// Kind selects a toggle implementation.
type Kind int

// Toggle implementations.
const (
	// KindAtomic implements the toggle with a single atomic fetch-and-add.
	KindAtomic Kind = iota + 1
	// KindMutex protects the toggle with a sync.Mutex.
	KindMutex
	// KindMCS protects the toggle with an MCS queue lock, the paper's
	// balancer implementation.
	KindMCS
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindAtomic:
		return "atomic"
	case KindMutex:
		return "mutex"
	case KindMCS:
		return "mcs"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// NewBalancer returns a balancer of the given kind with fanOut outputs.
func NewBalancer(k Kind, fanOut int) (Balancer, error) {
	if fanOut < 1 {
		return nil, fmt.Errorf("shm: balancer fanOut %d", fanOut)
	}
	switch k {
	case KindAtomic:
		return &atomicBalancer{fanOut: int64(fanOut)}, nil
	case KindMutex:
		return &mutexBalancer{fanOut: fanOut}, nil
	case KindMCS:
		return &mcsBalancer{fanOut: int64(fanOut)}, nil
	default:
		return nil, fmt.Errorf("shm: unknown balancer kind %d", int(k))
	}
}

// atomicBalancer distributes tokens round-robin with one fetch-and-add.
type atomicBalancer struct {
	c      atomic.Int64
	fanOut int64
}

func (b *atomicBalancer) Traverse() int {
	return int((b.c.Add(1) - 1) % b.fanOut)
}

// mutexBalancer is the textbook toggle under a mutex.
type mutexBalancer struct {
	mu     sync.Mutex
	toggle int
	fanOut int
}

func (b *mutexBalancer) Traverse() int {
	//countnet:allow hotvet -- KindMutex is the deliberately blocking textbook toggle, kept as the measurement baseline
	b.mu.Lock()
	out := b.toggle
	if b.toggle++; b.toggle == b.fanOut {
		b.toggle = 0
	}
	b.mu.Unlock()
	return out
}

// mcsSlab is how many MCS balancers Compile allocates at once: 512 bytes,
// the largest pointer-holding object Go allocates without a malloc header.
// Such an object starts on a 64-byte boundary, so each balancer of a slab
// owns one cache line (TestMCSBalancerLayout); a larger slab would start 8
// bytes past a line boundary.
const mcsSlab = 8

// nodes is the one pool of MCS queue nodes. Only a token that queues
// draws one.
var nodes mcs.Pool

// mcsBalancer is the paper's balancer: a toggle behind an MCS queue lock.
// The lock is the FIFO admission queue under contention. An idle toggle,
// one with no holder and no waiter, is one compare-and-swap on the toggle
// word and never writes the lock. A token that finds a holder or a waiter
// always queues, so contended tokens are still admitted in arrival order.
// The balancer fills a cache line that holds its lock and its toggle, so
// no two balancers' words share one (TestMCSBalancerLayout). Compile
// stores in the line's padding where the balancer's output destinations
// start in the graph's flat Dests array, so the single-token walk (token)
// reads the next node id with one load once the toggle has moved.
type mcsBalancer struct {
	lock   mcs.Lock
	toggle atomic.Int64
	fanOut int64
	out    int32 // topo.Graph.OutOffset of this balancer; set by Compile
	_      [36]byte
}

// Traverse implements Balancer: the idle fast path, else the queue.
func (b *mcsBalancer) Traverse() int {
	if t, ok := b.swap(); ok {
		return t
	}
	return b.queue()
}

// swap is the idle fast path. It makes one attempt: if the lock is idle
// it reads the toggle and swaps it one place on, and reports the position
// it left. A token that lost the swap, or found a holder or a waiter,
// must queue like any other. swap inlines, so the single-token walk
// (token) makes no call for an idle toggle.
func (b *mcsBalancer) swap() (int, bool) {
	if b.lock.Idle() {
		t := b.toggle.Load()
		if b.toggle.CompareAndSwap(t, b.next(t)) {
			return int(t), true
		}
	}
	return 0, false
}

// queue is a contended token's way through: it queues on the lock and, as
// holder, advances the toggle. The holder advances by compare-and-swap,
// not by a plain store, because a token that saw the lock idle just before
// the holder took it may still land its swap. Each such racer tries once,
// so the holder's retries are bounded by the number of concurrent racers.
func (b *mcsBalancer) queue() int {
	n := nodes.Get()
	b.lock.Acquire(n)
	t := b.advance()
	b.lock.Release(n)
	nodes.Put(n)
	return int(t)
}

// next is the toggle position after t: a compare-and-reset, not a
// division.
func (b *mcsBalancer) next(t int64) int64 {
	if t++; t == b.fanOut {
		return 0
	}
	return t
}

// advance moves the toggle one position and returns the one it left. Only
// the lock's holder calls it; it retries against fast-path racers.
func (b *mcsBalancer) advance() int64 {
	for {
		t := b.toggle.Load()
		if b.toggle.CompareAndSwap(t, b.next(t)) {
			return t
		}
	}
}

// Diffracting wraps a two-output toggle with a prism: concurrent pairs
// collide in the prism and leave on complementary outputs without touching
// the toggle (Shavit-Zemach diffraction).
type Diffracting struct {
	prism  *prism.Prism
	window time.Duration
	inner  Balancer
}

// NewDiffracting returns a diffracting balancer over the given two-output
// toggle. prismWidth is the number of exchanger slots; window how long a
// token waits for a partner before falling back to the toggle.
func NewDiffracting(inner Balancer, prismWidth int, window time.Duration) (*Diffracting, error) {
	if inner == nil {
		return nil, fmt.Errorf("shm: nil inner balancer")
	}
	if window <= 0 {
		return nil, fmt.Errorf("shm: non-positive prism window %v", window)
	}
	return &Diffracting{
		prism:  prism.New(prismWidth),
		window: window,
		inner:  inner,
	}, nil
}

// Traverse implements Balancer.
func (d *Diffracting) Traverse() int {
	switch d.prism.Exchange(d.window) {
	case prism.First:
		return 0
	case prism.Second:
		return 1
	default:
		return d.inner.Traverse()
	}
}

// Interface compliance.
var (
	_ Balancer = (*atomicBalancer)(nil)
	_ Balancer = (*mutexBalancer)(nil)
	_ Balancer = (*mcsBalancer)(nil)
	_ Balancer = (*Diffracting)(nil)
)
