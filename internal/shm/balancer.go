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
		return &mcsBalancer{fanOut: fanOut}, nil
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
	b.toggle = (b.toggle + 1) % b.fanOut
	b.mu.Unlock()
	return out
}

// nodes is the one pool of MCS queue nodes. A walk draws one node and
// carries it through every MCS toggle on its path (see walk), so a token
// pays for one Get and one Put, not one pair per hop.
var nodes mcs.Pool

// mcsBalancer is the paper's balancer: a toggle in a critical section
// protected by an MCS queue lock. It fills a cache line, so no two
// balancers' lock words share one (TestMCSBalancerLayout).
type mcsBalancer struct {
	lock   mcs.Lock
	toggle int
	fanOut int
	_      [40]byte
}

// Traverse implements Balancer with a queue node of its own, for callers
// outside a walk (the diffracting wrapper's fallback, single-toggle
// measurements).
func (b *mcsBalancer) Traverse() int {
	n := nodes.Get()
	out := b.traverse(n)
	nodes.Put(n)
	return out
}

// traverse toggles once in a critical section queued on n, the walk's
// node.
func (b *mcsBalancer) traverse(n *mcs.Node) int {
	b.lock.Acquire(n)
	out := b.toggle
	b.toggle = (b.toggle + 1) % b.fanOut
	b.lock.Release(n)
	return out
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
