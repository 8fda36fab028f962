// Package backoff provides the shared waiting primitives of the
// shared-memory runtime: the one poll-and-yield ladder every shm wait
// climbs, and a precision pause used by the stress driver to inject the
// paper's per-node W delays. Centralizing them keeps those busy-waits on
// the same policy, which matters on small machines where a spinning
// goroutine steals the quantum from the very goroutine it is waiting on.
//
// Its users: Spin paces every wait of internal/shm. The MCS lock
// (internal/shm/mcs) polls on it for the hand-over and for its
// successor's link and never parks; the turn wait (shm.Turn), under
// the linearizable filter and every cell of the FIFO queue
// (internal/shm/queue), parks once its yield budget is spent, and the
// exchanger wait (prism.Slot.Wait) under the prism, the elimination
// stack and the combining funnel parks once its offer is claimed. Pause
// injects W in the stress driver, the msgnet fault path and the
// benchmark's anomaly workload, and Burn is the stress driver's busy
// variant; Exp spaces msgnet retransmissions.
package backoff

import (
	"runtime"
	"time"
)

// pollsPerYield is how many failed polls a Spin waiter makes per yield
// of the processor.
const pollsPerYield = 64

// Spin is the poll-and-yield ladder: a waiter polls its condition back
// to back and calls Poll once per failed check, and every
// pollsPerYield-th call hands the processor to whoever holds what the
// waiter waits for. Pure polling starves that holder on an
// oversubscribed machine; a timed sleep would oversleep the hand-off,
// so a long waiter that has a wake-up parks on it instead. The zero
// value is ready to use; a Spin is not safe for concurrent use.
type Spin struct {
	polls uint32
}

// Poll records one failed check of the caller's condition. Every
// pollsPerYield-th call yields the processor and reports true, so the
// caller can decide at that round whether to park; the others return
// false at once.
func (s *Spin) Poll() bool {
	s.polls++
	if s.polls%pollsPerYield != 0 {
		return false
	}
	//countnet:allow hotvet -- the ladder's one yield, every pollsPerYield polls of a wait; pure polling starves the holder on oversubscribed runs
	runtime.Gosched()
	return true
}

// Escalation thresholds of backoff.wait: pure spins first (cheapest,
// keeps the cache line hot), cooperative yields next, brief sleeps once
// the wait is clearly not nanosecond-scale.
const (
	spinAttempts  = 8
	yieldAttempts = 64
	sleepQuantum  = 20 * time.Microsecond
)

// backoff is Pause's escalating waiter: the first few waits spin, the
// next batch yields the processor, and persistent waiting sleeps in
// short quanta so oversubscribed runs stop burning scheduler time. The
// zero value is ready to use.
type backoff struct {
	attempts int
}

// wait blocks for the current escalation level and advances it.
func (b *backoff) wait() {
	b.attempts++
	switch {
	case b.attempts <= spinAttempts:
		spin(4 << b.attempts)
	case b.attempts <= yieldAttempts:
		runtime.Gosched()
	default:
		time.Sleep(sleepQuantum)
	}
}

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
// cooperatively (one clock check per escalating wait) rather than
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
	var b backoff
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
			b.attempts = 0
			continue
		}
		b.wait()
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
