package prism

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestExchangeTimeoutWhenAlone(t *testing.T) {
	p := New(4)
	if out := p.Exchange(time.Millisecond); out != Timeout {
		t.Fatalf("alone exchange = %v, want Timeout", out)
	}
}

// attemptPair launches two goroutines into the prism with the given window
// and reports how many landed on each outcome.
func attemptPair(p *Prism, window time.Duration) (first, second, timeout int64) {
	var f, s, to atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch p.Exchange(window) {
			case First:
				f.Add(1)
			case Second:
				s.Add(1)
			case Timeout:
				to.Add(1)
			}
		}()
	}
	wg.Wait()
	return f.Load(), s.Load(), to.Load()
}

// TestExchangePairs checks that two concurrent tokens on a single-slot
// prism can meet and leave on complementary outputs. A single attempt can
// legitimately time out when the scheduler serializes the two goroutines
// (the first withdraws before the second arrives), so the test retries
// attempts against an overall deadline instead of asserting one fixed
// window; it fails only if no attempt ever pairs.
func TestExchangePairs(t *testing.T) {
	p := New(1) // single slot forces the pair to meet
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		first, second, timeout := attemptPair(p, 50*time.Millisecond)
		if first == 1 && second == 1 {
			return // exactly one of each direction: the exchange paired
		}
		if first != second {
			t.Fatalf("first=%d second=%d timeout=%d: unpaired diffraction", first, second, timeout)
		}
	}
	t.Fatal("no attempt paired before the deadline")
}

// TestExchangeComplementary runs concurrent exchanges and checks the
// invariant diffraction relies on: diffracted tokens come in (First,
// Second) pairs, so the two counts are equal. The goroutines loop against
// a shared deadline rather than a fixed iteration count, and the test
// keeps extending the run until some diffraction has been observed (or an
// overall budget expires), so it cannot flake on a machine where a short
// burst happens to never collide.
func TestExchangeComplementary(t *testing.T) {
	p := New(4)
	const goroutines = 8
	var first, second atomic.Int64
	budget := time.Now().Add(10 * time.Second)
	for first.Load() == 0 && time.Now().Before(budget) {
		stop := time.Now().Add(100 * time.Millisecond)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(stop) {
					switch p.Exchange(100 * time.Microsecond) {
					case First:
						first.Add(1)
					case Second:
						second.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		// All exchanges have completed (wg.Wait), so the pair counts are
		// final for this burst and must balance exactly.
		if first.Load() != second.Load() {
			t.Fatalf("first=%d second=%d: diffraction must be pairwise", first.Load(), second.Load())
		}
	}
	if first.Load() == 0 {
		t.Error("no diffraction at all under heavy concurrency")
	}
}

func TestWidthClamp(t *testing.T) {
	if len(New(0).slots) != 1 {
		t.Error("width 0 not clamped to 1")
	}
	if len(New(8).slots) != 8 {
		t.Error("width 8 mangled")
	}
}
