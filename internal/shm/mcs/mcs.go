// Package mcs implements the queue lock of Mellor-Crummey and Scott
// ("Algorithms for Scalable Synchronization on Shared-Memory
// Multiprocessors"), the lock the paper uses to protect every balancer: each
// waiter spins on its own queue node, so admission is FIFO and the lock
// generates constant remote traffic per handoff.
//
// The balancers use it as their FIFO admission queue under contention:
// Idle lets a caller see that no one holds or waits for the lock and skip
// the queue entirely, so only a contended token pays for queueing.
//
// A Node is clean (its next link nil) whenever it is not in a queue: it
// starts clean, and Release leaves it clean on both the uncontended and the
// hand-off path. Acquire therefore writes nothing to its node before
// joining the queue, and an uncontended Acquire/Release pair is two
// read-modify-writes on the tail (a swap and a compare-and-swap). Only a
// waiter that finds a predecessor sets its own locked flag and links in.
// One clean node can carry its goroutine through any number of locks in
// sequence.
package mcs

import (
	"sync"
	"sync/atomic"

	"countnet/internal/shm/backoff"
)

// Node is one waiter's queue cell, a whole cache line so that no two
// waiters spin on the same line. A Node may be reused, with this or any
// other Lock, once Release returns; use a Pool to amortize allocation.
type Node struct {
	next   atomic.Pointer[Node]
	locked atomic.Bool
	_      [52]byte // pad to 64 bytes
}

// Lock is an MCS queue lock. The zero value is an unlocked lock.
type Lock struct {
	tail atomic.Pointer[Node]
}

// Acquire enters the critical section, spinning on n until the predecessor
// hands the lock over. The spin polls on the backoff.Spin ladder and never
// parks: a hand-over is a few stores away. n must be clean: new, or
// released since its last Acquire.
func (l *Lock) Acquire(n *Node) {
	pred := l.tail.Swap(n)
	if pred == nil {
		return
	}
	// locked must be set before the link: the predecessor clears it only
	// after it reads pred.next.
	n.locked.Store(true)
	pred.next.Store(n)
	var s backoff.Spin
	for n.locked.Load() {
		s.Poll()
	}
}

// Idle reports whether the lock had no holder and no waiter at the moment
// it looked. It is advisory: the lock may be taken as soon as Idle returns.
func (l *Lock) Idle() bool {
	return l.tail.Load() == nil
}

// Release leaves the critical section entered with n and leaves n clean.
func (l *Lock) Release(n *Node) {
	next := n.next.Load()
	if next == nil {
		if l.tail.CompareAndSwap(n, nil) {
			return
		}
		// A successor is linking itself in; wait for the pointer.
		var s backoff.Spin
		for next = n.next.Load(); next == nil; next = n.next.Load() {
			s.Poll()
		}
	}
	n.next.Store(nil)
	next.locked.Store(false)
}

// Pool hands out clean queue Nodes.
type Pool struct {
	p sync.Pool
}

// Get returns a clean Node ready for Acquire.
func (p *Pool) Get() *Node {
	if n, ok := p.p.Get().(*Node); ok {
		return n
	}
	//countnet:allow hotvet -- a pool miss allocates one queue node; steady-state traffic recycles nodes through the pool
	return new(Node)
}

// Put returns a Node after Release.
func (p *Pool) Put(n *Node) { p.p.Put(n) }
