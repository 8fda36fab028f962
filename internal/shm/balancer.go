// Package shm is the real shared-memory runtime for balancing networks:
// goroutine-safe balancers (atomic, mutex, and MCS-queue-lock toggles, each
// optionally behind a diffracting prism), compiled networks that goroutines
// traverse directly, and a stress driver with delay injection and
// real-time linearizability monitoring. It is the
// goroutines-as-processors counterpart of the cycle-level simulator in
// internal/sim.
package shm

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"countnet/internal/shm/mcs"
	"countnet/internal/shm/prism"
)

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

// slab is how many balancers Compile allocates at once: 1024 bytes, eight
// 128-byte line pairs. Go puts an 8-byte malloc header before a
// pointer-holding object over 512 bytes, so a slab of six to eight starts
// 8 bytes past a 128-byte boundary and a smaller one on it; Balancer keeps
// its two groups of words on their own lines at either start
// (TestBalancerLayout). A slab of five would land in the 704-byte size
// class, whose objects alternate between 0 and 64 bytes past a 128-byte
// boundary, so Compile allocates six instead.
const slab = 8

// nodes is the one pool of MCS queue nodes. Only a token that queues
// draws one.
var nodes mcs.Pool

// Balancer is the paper's balancer: a toggle that sends tokens
// round-robin to its fanOut outputs, preserving the step property on
// them. It is safe for concurrent use. Its kind says how the toggle
// advances:
//
//   - KindMCS, the paper's, puts the toggle behind an MCS queue lock, the
//     FIFO admission queue under contention. An idle toggle, one with no
//     holder and no waiter, is one compare-and-swap on the toggle word
//     and never writes the lock. A token that finds a holder or a waiter
//     always queues, so contended tokens are still admitted in arrival
//     order.
//   - KindAtomic is one fetch-and-add on the toggle word, which counts
//     tokens; the port is the count modulo fanOut.
//   - KindMutex is the textbook toggle: a plain position under a
//     sync.Mutex.
//
// A balancer with a prism (NewDiffracting) first offers each token to
// the prism, where concurrent pairs collide and leave on complementary
// outputs without touching the toggle (Shavit-Zemach diffraction).
//
// Every balancer fills an aligned 128-byte pair of cache lines, the unit
// the adjacent-line prefetcher moves. The written line holds every word a
// token writes: the lock, the toggle, the mutex kind's lock and position,
// and the fetch-and-add words of the output counters its ports 0 and 1
// feed, so a token leaving for a counter takes its value on the line it
// just wrote. Its buddy line holds only the words Compile fixes: the
// fan-out, the kind, the prism, where the output destinations start in the
// graph's flat Dests array, and the balancers ports 0 and 1 lead to, so a
// plain token's walk (token) takes its next hop with one load of a line no
// token writes. No written line's pair holds another balancer's written
// words (TestBalancerLayout).
type Balancer struct {
	// Eight bytes of padding at each end of both groups keep each group on
	// its own line when the pair starts up to 8 bytes off a 128-byte
	// boundary, as a slab after its malloc header does.
	_ [8]byte

	// The written line, bytes 8 to 56.
	lock   mcs.Lock     // KindMCS's admission queue
	toggle atomic.Int64 // KindMCS's position, KindAtomic's token count
	// exits[p] is the fetch-and-add word of the counter port p feeds, if
	// that is a counter: it holds the counter's next value, starting at
	// its index and stepping by the network's output width. Compile sets
	// it; the walk hands out its values.
	exits [2]atomic.Int64
	mu    sync.Mutex // KindMutex's lock
	pos   int32      // KindMutex's position, guarded by mu
	_     [20]byte

	// The buddy line, bytes 72 to 112: set by init and Compile, then only
	// read.
	fanOut int32
	out    int32        // topo.Graph.OutOffset of this balancer; set by Compile
	kind   int32        // a Kind that init has checked
	prism  *prism.Prism // nil unless diffracting
	// succ[p] is the balancer port p leads to, nil where it feeds a
	// counter; set by Compile.
	succ [2]*Balancer
	_    [16]byte
}

// NewBalancer returns a balancer of the given kind with fanOut outputs.
func NewBalancer(k Kind, fanOut int) (*Balancer, error) {
	b := new(Balancer)
	if err := b.init(k, fanOut); err != nil {
		return nil, err
	}
	return b, nil
}

// init makes b a fresh toggle of kind k with fanOut outputs.
func (b *Balancer) init(k Kind, fanOut int) error {
	if fanOut < 1 || fanOut > math.MaxInt32 {
		return fmt.Errorf("shm: balancer fanOut %d", fanOut)
	}
	if k < KindAtomic || k > KindMCS {
		return fmt.Errorf("shm: unknown balancer kind %d", int(k))
	}
	b.kind, b.fanOut = int32(k), int32(fanOut)
	return nil
}

// NewDiffracting puts a prism in front of b's toggle and returns b.
// prismWidth is the number of exchanger slots; window how long a token
// waits for a partner before falling back to the toggle. A diffracted
// pair leaves on ports 0 and 1, which keeps the step property only when
// those are all the ports, so b must have two outputs. Call it before b
// routes any token.
func NewDiffracting(b *Balancer, prismWidth int, window time.Duration) (*Balancer, error) {
	if b == nil {
		return nil, fmt.Errorf("shm: nil inner balancer")
	}
	if b.fanOut != 2 {
		return nil, fmt.Errorf("shm: prism on a %d-output balancer, want 2", b.fanOut)
	}
	if window <= 0 {
		return nil, fmt.Errorf("shm: non-positive prism window %v", window)
	}
	b.prism = prism.New(prismWidth, window)
	return b, nil
}

// Traverse routes one token and returns its output port. The walk takes
// a plain MCS toggle inline (token) and calls Traverse for every other
// balancer.
func (b *Balancer) Traverse() int {
	if b.prism != nil {
		switch b.prism.Exchange() {
		case prism.First:
			return 0
		case prism.Second:
			return 1
		}
	}
	switch Kind(b.kind) {
	case KindAtomic:
		return b.port(b.toggle.Add(1) - 1)
	case KindMutex:
		return b.hold(1)
	}
	if t, ok := b.swap(); ok {
		return t
	}
	return b.queue()
}

// route routes demand tokens in one critical section, adding one to
// counts[p] for every token routed to output p. counts must have at least
// fanOut entries and is not cleared. The routing is exactly the routing
// of demand back-to-back Traverse calls, so batch traversal preserves the
// step property verbatim. A prism pairs tokens one at a time, so a
// diffracting balancer routes its tokens one Traverse each.
func (b *Balancer) route(demand int, counts []int) {
	var p int
	switch {
	case b.prism != nil:
		for range demand {
			counts[b.Traverse()]++
		}
		return
	case Kind(b.kind) == KindAtomic:
		p = b.port(b.toggle.Add(int64(demand)) - int64(demand))
	case Kind(b.kind) == KindMutex:
		p = b.hold(demand)
	default:
		// An MCS batch always queues, and advances the toggle inside its
		// critical section with the holder's compare-and-swap, once per
		// token.
		n := nodes.Get()
		b.lock.Acquire(n)
		for range demand {
			counts[b.advance()]++
		}
		b.lock.Release(n)
		nodes.Put(n)
		return
	}
	for range demand {
		counts[p]++
		if p++; p == int(b.fanOut) {
			p = 0
		}
	}
}

// port is KindAtomic's output for the token that found count c: c modulo
// the fan-out, a mask when the fan-out is two, as it is in every balancer
// of bitonic, periodic and binary-tree networks.
func (b *Balancer) port(c int64) int {
	if b.fanOut == 2 {
		return int(c & 1)
	}
	return int(c % int64(b.fanOut))
}

// hold moves KindMutex's position demand places under its mutex and
// returns the one it left.
func (b *Balancer) hold(demand int) int {
	//countnet:allow hotvet -- KindMutex is the deliberately blocking textbook toggle, kept as the measurement baseline
	b.mu.Lock()
	t := b.pos
	for range demand {
		if b.pos++; b.pos == b.fanOut {
			b.pos = 0
		}
	}
	b.mu.Unlock()
	return int(t)
}

// swap is the MCS idle fast path. It makes one attempt: if the lock is
// idle it reads the toggle and swaps it one place on, and reports the
// position it left. A token that lost the swap, or found a holder or a
// waiter, must queue like any other. swap inlines, so the single-token
// walk (token) makes no call for an idle toggle.
func (b *Balancer) swap() (int, bool) {
	if b.lock.Idle() {
		t := b.toggle.Load()
		if b.toggle.CompareAndSwap(t, b.next(t)) {
			return int(t), true
		}
	}
	return 0, false
}

// queue is a contended MCS token's way through: it queues on the lock
// and, as holder, advances the toggle. The holder advances by
// compare-and-swap, not by a plain store, because a token that saw the
// lock idle just before the holder took it may still land its swap. Each
// such racer tries once, so the holder's retries are bounded by the
// number of concurrent racers.
func (b *Balancer) queue() int {
	n := nodes.Get()
	b.lock.Acquire(n)
	t := b.advance()
	b.lock.Release(n)
	nodes.Put(n)
	return int(t)
}

// next is the MCS toggle position after t: a compare-and-reset, not a
// division.
func (b *Balancer) next(t int64) int64 {
	if t++; t == int64(b.fanOut) {
		return 0
	}
	return t
}

// advance moves the MCS toggle one position and returns the one it left.
// Only the lock's holder calls it; it retries against fast-path racers.
func (b *Balancer) advance() int64 {
	for {
		t := b.toggle.Load()
		if b.toggle.CompareAndSwap(t, b.next(t)) {
			return t
		}
	}
}
