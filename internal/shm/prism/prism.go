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

// Prism is a fixed-width array of exchanger slots. A diffracted pair
// exchanges nothing but the fact that it met, so its offers carry no
// payload and are pooled.
type Prism struct {
	slots   []Slot[struct{}]
	pool    sync.Pool
	retries atomic.Int64
}

// New returns a prism with the given number of slots (at least 1).
func New(width int) *Prism {
	if width < 1 {
		width = 1
	}
	p := &Prism{slots: make([]Slot[struct{}], width)}
	p.pool.New = func() any { return new(Offer[struct{}]) }
	return p
}

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
	if o := slot.Peek(); o != nil {
		if slot.Claim(o) {
			o.Deliver()
			return Second
		}
		p.retries.Add(1)
	}
	me, _ := p.pool.Get().(*Offer[struct{}])
	if !slot.Camp(me) {
		// Lost the race to camp; retry against whoever won.
		p.retries.Add(1)
		p.pool.Put(me)
		if o := slot.Peek(); o != nil && slot.Claim(o) {
			o.Deliver()
			return Second
		}
		return Timeout
	}
	out := Timeout
	if slot.Wait(me, time.Now().Add(window)) {
		out = First
	}
	p.pool.Put(me)
	return out
}
