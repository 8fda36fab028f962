// Package backoff provides the shared waiting primitives of the
// shared-memory runtime: an exponential spin-then-yield-then-sleep
// backoff for slots and locks that poll under contention, and a
// precision pause used by the stress driver to inject the paper's
// per-node W delays. Centralizing them keeps those busy-waits on the
// same escalation policy, which matters on small machines where a
// spinning goroutine steals the quantum from the very goroutine it is
// waiting on.
//
// Its users: Backoff paces the one exchanger wait (prism.Slot.Wait,
// through Yield) that the diffracting prism, the elimination stack and
// the combining funnel share; Pause injects W in the stress driver,
// the msgnet fault path and the benchmark's anomaly workload, and Burn
// is the stress driver's busy variant; Exp spaces msgnet
// retransmissions. The ModeLinear turn wait (shm.Turn) does not use it:
// a held value is handed straight to its parked successor, which a
// timed sleep would only delay (EXPERIMENTS.md E33).
package backoff

import (
	"runtime"
	"time"
)

// Escalation thresholds of Backoff.Wait: pure spins first (cheapest,
// keeps the cache line hot), cooperative yields next, brief sleeps once
// the wait is clearly not nanosecond-scale.
const (
	spinAttempts  = 8
	yieldAttempts = 64
	sleepQuantum  = 20 * time.Microsecond
)

// Backoff is an escalating waiter for polling loops: the first few
// Waits spin, the next batch yields the processor, and persistent
// waiting sleeps in short quanta so oversubscribed runs stop burning
// scheduler time. The zero value is ready to use; a Backoff is not safe
// for concurrent use.
type Backoff struct {
	attempts int
}

// Wait blocks for the current escalation level and advances it.
func (b *Backoff) Wait() {
	b.attempts++
	switch {
	case b.attempts <= spinAttempts:
		spin(4 << b.attempts)
	case b.attempts <= yieldAttempts:
		//countnet:allow hotvet -- the yield tier of the escalation ladder; handing back the quantum is this primitive's purpose
		runtime.Gosched()
	default:
		//countnet:allow hotvet -- the sleep tier of the escalation ladder; a persistent waiter must stop burning scheduler time
		time.Sleep(sleepQuantum)
	}
}

// Yield is Wait for a caller that polls its own condition between
// calls and so has no use for the spin tier: it starts at the yield
// tier, and persistent waiting still sleeps.
func (b *Backoff) Yield() {
	if b.attempts < spinAttempts {
		b.attempts = spinAttempts
	}
	b.Wait()
}

// Attempts returns how many times Wait has been called since the last
// Reset.
func (b *Backoff) Attempts() int { return b.attempts }

// Reset returns the backoff to the spinning level, for reuse across
// independent waiting episodes.
func (b *Backoff) Reset() { b.attempts = 0 }

// spin busies the CPU for roughly n loop iterations without entering
// the scheduler.
//
//go:noinline
func spin(n int) {
	for i := 0; i < n; i++ {
		_ = i
	}
}

// Pause delays the calling goroutine for d. The stress driver uses it
// to model the paper's W — local work a simulated processor performs
// between balancer accesses — so sub-millisecond pauses burn the delay
// cooperatively (one clock check per escalating Wait) rather than
// parking on a timer: a processor doing work holds its share of the
// machine, it does not hand it back. The spin levels keep
// sub-microsecond resolution on an idle machine, and the yield levels
// stop a pausing worker from monopolizing its quantum with clock polls
// on an oversubscribed one. Millisecond-scale pauses just sleep.
func Pause(d time.Duration) {
	if d <= 0 {
		return
	}
	if d >= time.Millisecond {
		time.Sleep(d)
		return
	}
	deadline := time.Now().Add(d)
	var b Backoff
	for {
		rem := time.Until(deadline)
		if rem <= 0 {
			return
		}
		if rem > spinHorizon {
			// Far from the deadline no spin ladder can land it: hand
			// the quantum to whoever has real work. On an idle machine
			// Gosched returns immediately and this loop busy-polls at
			// clock-read granularity, which is exactly the simulated
			// work the pause stands in for.
			runtime.Gosched()
			b.Reset()
			continue
		}
		b.Wait()
	}
}

// spinHorizon is how close to its deadline Pause switches from yielding
// to the spin ladder for sub-microsecond landing precision.
const spinHorizon = 2 * time.Microsecond

// Exp returns the capped exponential retry delay for the given attempt:
// base<<attempt, saturating at limit. The msgnet fault-recovery path uses
// it as the per-hop retransmission timeout (Pause(Exp(base, limit, n))
// between re-sends). Saturation is exact: a shift that would overflow —
// or merely exceed the cap — returns limit, never a negative or wrapped
// duration, and non-positive inputs return 0 so a disabled retry policy
// costs nothing.
func Exp(base, limit time.Duration, attempt int) time.Duration {
	if base <= 0 || limit <= 0 {
		return 0
	}
	if base >= limit {
		return limit
	}
	if attempt < 0 {
		attempt = 0
	}
	// Saturate without ever computing an overflowing shift: base<<attempt
	// exceeds limit exactly when base exceeds limit>>attempt (both sides
	// truncate the same low bits).
	if attempt >= 63 || base > limit>>uint(attempt) {
		return limit
	}
	return base << uint(attempt)
}

// Burn occupies the calling goroutine's processor for d without
// yielding it: the stand-in for per-node costs that hold the hardware —
// cache-coherence stalls, spinning in a lock queue — as opposed to
// Pause, which models delays a descheduled process doesn't charge to
// anyone else. The clock is checked every few iterations so the
// overshoot stays well under a microsecond.
func Burn(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		spin(32)
	}
}
