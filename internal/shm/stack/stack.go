// Package stack implements an elimination-backoff stack in the spirit of
// Shavit and Touitou's elimination trees (reference [20] of the paper — the
// same collision idea the diffracting prisms use): a lock-free Treiber
// stack whose contended operations meet in an elimination array where a
// concurrent push/pop pair cancels out without touching the stack top at
// all. The array's cells are the prism's exchanger slots (prism.Slot).
package stack

import (
	"math/rand/v2"
	"sync/atomic"
	"time"

	"countnet/internal/shm/prism"
)

// offer is one operation camped in the elimination array: a push
// carries its value in v, and a pop receives its value there.
type offer[T any] struct {
	push bool
	v    T
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
	slots  []prism.Slot[offer[T]]
	window time.Duration

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
		slots:  make([]prism.Slot[offer[T]], width),
		window: window,
	}
}

// Push adds v to the stack.
func (s *Stack[T]) Push(v T) {
	n := &node[T]{v: v}
	for {
		// Cheap peek: complete a camped pop without touching the top.
		if s.eliminate(true, &v) {
			return
		}
		top := s.top.Load()
		n.next = top
		if s.top.CompareAndSwap(top, n) {
			return
		}
		if s.campAndWait(true, &v) {
			return
		}
	}
}

// Pop removes and returns the most recently pushed value; ok is false when
// the stack is empty and no concurrent push eliminated with us.
func (s *Stack[T]) Pop() (v T, ok bool) {
	for {
		// Cheap peek: complete against a camped push without touching the
		// top.
		if s.eliminate(false, &v) {
			return v, true
		}
		top := s.top.Load()
		if top == nil {
			ok = s.campAndWait(false, &v)
			return v, ok
		}
		if s.top.CompareAndSwap(top, top.next) {
			return top.v, true
		}
		if s.campAndWait(false, &v) {
			return v, true
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

// eliminate completes a push (push true) or pop against an offer of the
// other kind already camped in a random slot, without camping itself: v
// is the pushed value, or receives the popped one.
func (s *Stack[T]) eliminate(push bool, v *T) bool {
	slot := &s.slots[rand.IntN(len(s.slots))]
	o := slot.Peek()
	if o == nil || o.V.push == push || !slot.Claim(o) {
		return false
	}
	if push {
		o.V.v = *v
	} else {
		*v = o.V.v
	}
	o.Deliver()
	s.eliminated.Add(1)
	return true
}

// campAndWait tries eliminate, then camps an offer in a random slot for
// the collision window; it reports whether a partner completed the
// operation.
func (s *Stack[T]) campAndWait(push bool, v *T) bool {
	if s.eliminate(push, v) {
		return true
	}
	if s.window <= 0 {
		return false
	}
	// A fresh offer per camp: eliminate reads a peeked offer's kind
	// before it claims, so a recycled offer could change kind under it.
	o := &prism.Offer[offer[T]]{V: offer[T]{push: push, v: *v}}
	slot := &s.slots[rand.IntN(len(s.slots))]
	if !slot.Camp(o) || !slot.Wait(o, time.Now().Add(s.window)) {
		return false
	}
	*v = o.V.v
	s.eliminated.Add(1)
	return true
}
