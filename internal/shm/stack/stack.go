// Package stack implements an elimination-backoff stack in the spirit of
// Shavit and Touitou's elimination trees (reference [20] of the paper — the
// same collision idea the diffracting prisms use): a lock-free Treiber
// stack whose contended operations meet in an elimination array where a
// concurrent push/pop pair cancels out without touching the stack top at
// all.
package stack

import (
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"
)

// offer states.
const (
	offerWaiting int32 = iota
	offerClaimed       // a partner is writing the exchanged value
	offerMatched
	offerWithdrawn
)

// offer is one operation camped in the elimination array.
type offer[T any] struct {
	isPush bool
	v      T // pushed value (valid for push offers)
	match  T // value delivered to a pop offer
	state  atomic.Int32
}

// node is one Treiber-stack cell.
type node[T any] struct {
	v    T
	next *node[T]
}

// Stack is a concurrent LIFO with elimination backoff. The zero value is
// not usable; call New.
type Stack[T any] struct {
	top    atomic.Pointer[node[T]]
	slots  []atomic.Pointer[offer[T]]
	window time.Duration

	pushes     atomic.Int64
	pops       atomic.Int64
	eliminated atomic.Int64
}

// New returns a stack with an elimination array of `width` slots and the
// given collision window (how long a contended operation camps waiting for
// a partner). width < 1 is clamped to 1; window <= 0 disables camping
// (operations only match offers already present).
func New[T any](width int, window time.Duration) *Stack[T] {
	if width < 1 {
		width = 1
	}
	return &Stack[T]{
		slots:  make([]atomic.Pointer[offer[T]], width),
		window: window,
	}
}

// Push adds v to the stack.
func (s *Stack[T]) Push(v T) {
	s.pushes.Add(1)
	n := &node[T]{v: v}
	for {
		// Cheap peek: complete a camped pop without touching the top.
		if s.matchOnly(&offer[T]{isPush: true, v: v}) {
			return
		}
		top := s.top.Load()
		n.next = top
		if s.top.CompareAndSwap(top, n) {
			return
		}
		if s.campAndWait(&offer[T]{isPush: true, v: v}) {
			return
		}
	}
}

// Pop removes and returns the most recently pushed value; ok is false when
// the stack is empty and no concurrent push eliminated with us.
func (s *Stack[T]) Pop() (v T, ok bool) {
	s.pops.Add(1)
	for {
		// Cheap peek: complete against a camped push without touching the
		// top.
		if o := (&offer[T]{isPush: false}); s.matchOnly(o) {
			return o.match, true
		}
		top := s.top.Load()
		if top == nil {
			o := &offer[T]{isPush: false}
			if s.campAndWait(o) {
				return o.match, true
			}
			return v, false
		}
		if s.top.CompareAndSwap(top, top.next) {
			return top.v, true
		}
		o := &offer[T]{isPush: false}
		if s.campAndWait(o) {
			return o.match, true
		}
	}
}

// Eliminated returns how many operations completed by pairwise elimination.
func (s *Stack[T]) Eliminated() int64 { return s.eliminated.Load() }

// Len walks the stack; it is only meaningful in quiescent states.
func (s *Stack[T]) Len() int {
	n := 0
	for p := s.top.Load(); p != nil; p = p.next {
		n++
	}
	return n
}

// matchOnly attempts to complete `mine` against an already-camped
// complementary offer, without camping itself.
func (s *Stack[T]) matchOnly(mine *offer[T]) bool {
	slot := s.pickSlot()
	if other := slot.Load(); other != nil &&
		other.isPush != mine.isPush && slot.CompareAndSwap(other, nil) {
		return s.tryMatch(other, mine)
	}
	return false
}

// campAndWait parks `mine` in an empty slot for the collision window; it
// reports whether a partner completed the operation.
func (s *Stack[T]) campAndWait(mine *offer[T]) bool {
	if s.matchOnly(mine) {
		return true
	}
	if s.window <= 0 {
		return false
	}
	slot := s.pickSlot()
	if !slot.CompareAndSwap(nil, mine) {
		return false
	}
	deadline := time.Now().Add(s.window)
	for spins := 0; ; spins++ {
		switch mine.state.Load() {
		case offerMatched:
			slot.CompareAndSwap(mine, nil)
			s.eliminated.Add(1)
			return true
		case offerClaimed:
			// Partner committed; wait for the handoff to finish.
		default:
			if time.Now().After(deadline) {
				if mine.state.CompareAndSwap(offerWaiting, offerWithdrawn) {
					slot.CompareAndSwap(mine, nil)
					return false
				}
				continue // lost the race: a partner is completing us
			}
		}
		if spins%32 == 31 {
			runtime.Gosched()
		}
	}
}

// pickSlot returns a random elimination slot.
func (s *Stack[T]) pickSlot() *atomic.Pointer[offer[T]] {
	return &s.slots[rand.IntN(len(s.slots))]
}

// tryMatch completes a camped offer `other` with `mine` (of the opposite
// kind); it reports whether the exchange happened.
func (s *Stack[T]) tryMatch(other, mine *offer[T]) bool {
	if !other.state.CompareAndSwap(offerWaiting, offerClaimed) {
		return false // withdrawn or already taken
	}
	if mine.isPush {
		// I push, the camped offer pops: hand it my value.
		other.match = mine.v
	} else {
		// I pop, the camped offer pushes: take its value.
		mine.match = other.v
	}
	other.state.Store(offerMatched)
	s.eliminated.Add(1)
	return true
}
