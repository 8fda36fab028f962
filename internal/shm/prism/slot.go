package prism

import (
	"sync"
	"sync/atomic"
	"time"

	"countnet/internal/shm/backoff"
)

// Slot is one exchanger cell, the rendezvous the prism, the elimination
// stack (internal/shm/stack) and the combining funnel
// (internal/shm/combine) all pair their tokens in. A slot is an atomic
// pointer to the offer camped in it, nil when empty:
//
//   - Camp is the camper's CAS nil→offer.
//   - A claimer Peeks the pointer, then Claims it with a CAS
//     offer→nil. A won claim is the exchange's only commit point.
//   - Withdraw is the camper's own CAS offer→nil. When it fails, a
//     claimer has the offer and its delivery is on the way.
//   - Deliver: the claimer writes its payload into the offer's V, then
//     stores the offer's done word, which the camper's Wait polls, and
//     wakes the camper if it parked.
//
// An offer may be pooled and camped again only if no claimer reads its
// fields before its claim wins: a claimer that peeked an offer, lost the
// CPU and then claimed the same pointer camped anew has claimed the new
// camping, which is sound only if nothing it read belonged to the old
// one. The prism and the funnel read nothing before the claim, so they
// pool their offers; the stack reads the peeked offer's kind, so it
// camps a fresh offer every time.
type Slot[T any] struct {
	p atomic.Pointer[Offer[T]]
}

// Offer is one party camped in a Slot. The camper fills V before
// Camp; the claimer may read V once its Claim wins, and writes its
// delivery into V before Deliver.
type Offer[T any] struct {
	V    T
	done atomic.Int32   // waiting, delivered or parked
	wake sync.WaitGroup // a parked camper waits on it until Deliver
}

// Offer done-word states.
const (
	waiting int32 = iota
	delivered
	parked
)

// Camp installs o in an empty slot; it reports false when the slot is
// taken.
func (s *Slot[T]) Camp(o *Offer[T]) bool { return s.p.CompareAndSwap(nil, o) }

// Peek returns the offer camped in the slot, or nil.
func (s *Slot[T]) Peek() *Offer[T] { return s.p.Load() }

// Claim takes o, which Peek returned, out of the slot. It reports false
// when a concurrent claim or o's withdraw got there first.
func (s *Slot[T]) Claim(o *Offer[T]) bool { return s.p.CompareAndSwap(o, nil) }

// Withdraw takes the caller's own offer o out of the slot. It reports
// false when a claimer already has o.
func (s *Slot[T]) Withdraw(o *Offer[T]) bool { return s.p.CompareAndSwap(o, nil) }

// Deliver completes a claimed offer: everything the claimer wrote to V
// before it is visible to the camper once Wait returns. It wakes the
// camper if it parked.
func (o *Offer[T]) Deliver() {
	if o.done.Swap(delivered) == parked {
		o.wake.Done()
	}
}

// Wait is the camper's side of the exchange, the one wait every
// exchanger in the runtime shares. It polls o's done word back to back
// on the backoff.Spin ladder, against deadline, where it withdraws o;
// each poll reads the clock, so the camper leaves within a poll of its
// deadline, and the ladder's yields hand the processor to the token it
// waits for on an oversubscribed machine. An offer that has left its
// slot is claimed and its delivery is certain, so a camper that finds o
// claimed at a yield round, or loses its withdraw, parks until Deliver
// wakes it instead of polling for as long as the claimer takes (a
// funnel representative walks the whole network first). Wait reports
// whether o was delivered, and leaves o ready to camp again.
func (s *Slot[T]) Wait(o *Offer[T], deadline time.Time) bool {
	var spin backoff.Spin
	for o.done.Load() != delivered {
		if time.Now().After(deadline) {
			if s.Withdraw(o) {
				return false
			}
			o.park()
			break
		}
		if spin.Poll() && s.p.Load() != o {
			o.park()
			break
		}
	}
	o.done.Store(waiting)
	return true
}

// park blocks a claimed camper until its delivery lands. The camper
// counts itself into wake before it moves the done word to parked, and
// only a Deliver that finds parked counts it out, so the Wait returns
// exactly when the delivery has landed. A delivery that came first
// leaves the word delivered, and the camper counts itself out.
//
//countnet:coldpath
func (o *Offer[T]) park() {
	o.wake.Add(1)
	if o.done.CompareAndSwap(waiting, parked) {
		o.wake.Wait()
	} else {
		o.wake.Done()
	}
}
