// Package prism implements the diffraction mechanism of Shavit and Zemach's
// diffracting trees (and the elimination "multi-prism" of Shavit and
// Touitou): an array of exchanger slots in front of a balancer's toggle
// where pairs of concurrent tokens collide and leave on complementary
// outputs without touching the toggle at all. Two tokens taking opposite
// outputs leave the toggle state unchanged, so diffraction preserves the
// balancer's step property while removing the sequential bottleneck.
package prism

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Outcome of an exchange attempt.
type Outcome int

// Exchange outcomes.
const (
	// Timeout means no partner arrived; the caller must fall back to the
	// toggle.
	Timeout Outcome = iota + 1
	// First means the token was diffracted and takes the balancer's first
	// output.
	First
	// Second means the token was diffracted and takes the second output.
	Second
)

// waiter is one token camped in a slot awaiting a partner.
type waiter struct {
	result chan Outcome
}

// Prism is a fixed-width array of exchanger slots.
type Prism struct {
	slots   []atomic.Pointer[waiter]
	pool    sync.Pool
	retries atomic.Int64
}

// New returns a prism with the given number of slots (at least 1).
func New(width int) *Prism {
	if width < 1 {
		width = 1
	}
	p := &Prism{slots: make([]atomic.Pointer[waiter], width)}
	p.pool.New = func() any { return &waiter{result: make(chan Outcome, 1)} }
	return p
}

// Width returns the number of slots.
func (p *Prism) Width() int { return len(p.slots) }

// Retries returns how many CAS races this prism has lost (a take or camp
// attempt that failed because a concurrent token won the slot) — the
// contention signal the observability layer exports per balancer.
func (p *Prism) Retries() int64 { return p.retries.Load() }

// Exchange attempts to diffract with a partner for at most `window`, in a
// slot the calling thread's own generator picks. It returns First or
// Second when a collision happened, Timeout otherwise.
func (p *Prism) Exchange(window time.Duration) Outcome {
	slot := &p.slots[rand.IntN(len(p.slots))]
	// Partner already waiting? Take it.
	if w := slot.Load(); w != nil {
		if slot.CompareAndSwap(w, nil) {
			//countnet:allow hotvet -- partner channels are buffered (capacity 1) and the CAS made us sole sender, so the send never blocks
			w.result <- First
			return Second
		}
		p.retries.Add(1)
	}
	me, _ := p.pool.Get().(*waiter)
	if !slot.CompareAndSwap(nil, me) {
		// Lost the race to camp; retry against whoever won.
		p.retries.Add(1)
		p.pool.Put(me)
		if w := slot.Load(); w != nil && slot.CompareAndSwap(w, nil) {
			//countnet:allow hotvet -- partner channels are buffered (capacity 1) and the CAS made us sole sender, so the send never blocks
			w.result <- First
			return Second
		}
		return Timeout
	}
	deadline := time.Now().Add(window)
	for spins := 0; ; spins++ {
		//countnet:allow hotvet -- nonblocking poll for a partner during the diffraction window; camping is the prism's pairing mechanism
		select {
		case out := <-me.result:
			p.pool.Put(me)
			return out
		default:
		}
		if time.Now().After(deadline) {
			break
		}
		if spins%32 == 31 {
			//countnet:allow hotvet -- bounded courtesy yield inside the diffraction window poll
			runtime.Gosched()
		}
	}
	// Withdraw; a partner may pair with us at the last instant.
	if slot.CompareAndSwap(me, nil) {
		p.pool.Put(me)
		return Timeout
	}
	//countnet:allow hotvet -- the failed withdrawal CAS proves a partner committed, so the buffered result is already in flight
	out := <-me.result // partner committed; complete the exchange
	p.pool.Put(me)
	return out
}
