package backoff

import (
	"os"
	"testing"
	"time"
)

// strictTiming reports whether wall-clock upper-bound assertions are
// enabled. Lower bounds (a pause must not return early) always hold by
// construction, but overshoot ceilings depend on machine load: a
// preempted runner can stretch any sleep arbitrarily. CI and developer
// machines that want the tight assertions set COUNTNET_STRICT_TIMING=1.
func strictTiming() bool {
	return os.Getenv("COUNTNET_STRICT_TIMING") != ""
}

func TestBackoffEscalation(t *testing.T) {
	var b backoff
	if b.attempts != 0 {
		t.Fatalf("zero value has %d attempts", b.attempts)
	}
	// The whole ladder must terminate: spins, yields, then one sleep
	// quantum. Walk past every threshold and check the bookkeeping.
	for i := 1; i <= yieldAttempts+1; i++ {
		b.wait()
		if b.attempts != i {
			t.Fatalf("after %d waits attempts = %d", i, b.attempts)
		}
	}
}

// TestSpinPoll checks the ladder's schedule: Poll reports true, having
// yielded, exactly on every pollsPerYield-th call.
func TestSpinPoll(t *testing.T) {
	var s Spin
	for i := 1; i <= 4*pollsPerYield; i++ {
		if got, want := s.Poll(), i%pollsPerYield == 0; got != want {
			t.Fatalf("Poll call %d reported %v, want %v", i, got, want)
		}
	}
}

func TestBackoffSleepLevelActuallySleeps(t *testing.T) {
	var b backoff
	for i := 0; i < yieldAttempts; i++ {
		b.wait()
	}
	start := time.Now()
	b.wait() // past the yield threshold: one sleep quantum
	if elapsed := time.Since(start); elapsed < sleepQuantum/2 {
		t.Errorf("sleep-level wait returned after %v, quantum is %v", elapsed, sleepQuantum)
	}
}

func TestPause(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Second} {
		start := time.Now()
		Pause(d)
		if elapsed := time.Since(start); strictTiming() && elapsed > time.Millisecond {
			t.Errorf("Pause(%v) took %v", d, elapsed)
		}
	}
	for _, d := range []time.Duration{5 * time.Microsecond, 100 * time.Microsecond, 2 * time.Millisecond} {
		start := time.Now()
		Pause(d)
		elapsed := time.Since(start)
		if elapsed < d {
			t.Errorf("Pause(%v) returned early after %v", d, elapsed)
		}
		// Generous ceiling: the point is that a 5µs pause does not park
		// for a scheduler-quantum-scale sleep, not exact landing. Gated —
		// an overloaded runner can stretch any pause past any ceiling.
		if strictTiming() && elapsed > d+20*time.Millisecond {
			t.Errorf("Pause(%v) overshot to %v", d, elapsed)
		}
	}
}

func TestBurn(t *testing.T) {
	Burn(0)
	Burn(-time.Microsecond) // must not hang or panic
	for _, d := range []time.Duration{10 * time.Microsecond, 200 * time.Microsecond} {
		start := time.Now()
		Burn(d)
		elapsed := time.Since(start)
		if elapsed < d {
			t.Errorf("Burn(%v) returned early after %v", d, elapsed)
		}
		if strictTiming() && elapsed > d+20*time.Millisecond {
			t.Errorf("Burn(%v) overshot to %v", d, elapsed)
		}
	}
}

// TestExp drives the capped exponential through every boundary: zero and
// negative inputs, cap saturation, base >= limit, and shifts that would
// overflow int64 (attempt 61..63 and beyond).
func TestExp(t *testing.T) {
	const maxDur = time.Duration(1<<63 - 1)
	cases := []struct {
		name        string
		base, limit time.Duration
		attempt     int
		want        time.Duration
	}{
		{"zero base", 0, time.Second, 3, 0},
		{"negative base", -time.Microsecond, time.Second, 3, 0},
		{"zero limit", time.Microsecond, 0, 3, 0},
		{"negative limit", time.Microsecond, -time.Second, 3, 0},
		{"zero attempts", 2 * time.Microsecond, 256 * time.Microsecond, 0, 2 * time.Microsecond},
		{"negative attempt clamps to zero", 2 * time.Microsecond, 256 * time.Microsecond, -5, 2 * time.Microsecond},
		{"doubling below cap", 2 * time.Microsecond, 256 * time.Microsecond, 3, 16 * time.Microsecond},
		{"last step under cap", 2 * time.Microsecond, 256 * time.Microsecond, 7, 256 * time.Microsecond},
		{"saturates at cap", 2 * time.Microsecond, 256 * time.Microsecond, 8, 256 * time.Microsecond},
		{"far past cap", 2 * time.Microsecond, 256 * time.Microsecond, 40, 256 * time.Microsecond},
		{"base equals limit", time.Millisecond, time.Millisecond, 0, time.Millisecond},
		{"base above limit", 2 * time.Millisecond, time.Millisecond, 0, time.Millisecond},
		{"shift overflow at 62", 1, maxDur, 62, 1 << 62},
		{"shift overflow at 63", 1, maxDur, 63, maxDur},
		{"shift overflow far past 63", 1, maxDur, 200, maxDur},
		{"wide base large shift", time.Hour, maxDur, 62, maxDur},
		{"max everything", maxDur, maxDur, 1<<31 - 1, maxDur},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Exp(tc.base, tc.limit, tc.attempt); got != tc.want {
				t.Errorf("Exp(%v, %v, %d) = %v, want %v", tc.base, tc.limit, tc.attempt, got, tc.want)
			}
		})
	}
	// Exhaustive non-negativity and monotone saturation over the whole
	// shift range: the retry loop must never receive a negative pause.
	prev := time.Duration(0)
	for attempt := 0; attempt <= 70; attempt++ {
		d := Exp(3*time.Microsecond, time.Second, attempt)
		if d < 0 {
			t.Fatalf("Exp negative at attempt %d: %v", attempt, d)
		}
		if d < prev {
			t.Fatalf("Exp not monotone at attempt %d: %v < %v", attempt, d, prev)
		}
		if d > time.Second {
			t.Fatalf("Exp above cap at attempt %d: %v", attempt, d)
		}
		prev = d
	}
}
