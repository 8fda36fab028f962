package obs

import (
	"sync"
	"testing"
)

// TestClockTickUniqueMonotone drives concurrent tickers and checks ids
// are unique — the property span identity rests on.
func TestClockTickUniqueMonotone(t *testing.T) {
	c := NewClock()
	const workers, per = 8, 1000
	ids := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ids[w] = append(ids[w], c.Tick())
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]bool, workers*per)
	for w := range ids {
		last := uint64(0)
		for _, id := range ids[w] {
			if id == 0 {
				t.Fatal("Tick returned 0; 0 is the no-span sentinel")
			}
			if id <= last {
				t.Fatalf("ids not monotone within one goroutine: %d after %d", id, last)
			}
			last = id
			if seen[id] {
				t.Fatalf("span id %d issued twice", id)
			}
			seen[id] = true
		}
	}
	if got := c.v.Load(); got != uint64(workers*per) {
		t.Fatalf("clock = %d, want %d", got, workers*per)
	}
}

// TestClockWitness pins the Lamport max-join: witnessing a remote value
// pushes later ticks past it, witnessing the past is a no-op.
func TestClockWitness(t *testing.T) {
	c := NewClock()
	c.Tick()
	c.Witness(100)
	if got := c.Tick(); got != 101 {
		t.Fatalf("Tick after Witness(100) = %d, want 101", got)
	}
	c.Witness(5) // behind; must not rewind
	if got := c.Tick(); got != 102 {
		t.Fatalf("Tick after stale Witness = %d, want 102", got)
	}
}

// TestCausalClosure checks orphan chains (parents lost to wraparound) are
// dropped transitively while intact chains and uncausal events survive.
func TestCausalClosure(t *testing.T) {
	events := []Event{
		{T: 1, Span: 1},            // root, kept
		{T: 2, Span: 2, Parent: 1}, // kept
		{T: 3, Span: 4, Parent: 3}, // parent 3 absent: orphan
		{T: 4, Span: 5, Parent: 4}, // ancestor orphaned: dropped too
		{T: 5, Span: 6, Parent: 2}, // kept
		{T: 6},                     // no span: kept as-is
		{T: 7, Span: 8, Parent: 7}, // orphan
	}
	closed, orphans := CausalClosure(events)
	if orphans != 3 {
		t.Fatalf("orphans = %d, want 3", orphans)
	}
	if len(closed) != 4 {
		t.Fatalf("closure kept %d events (%v), want 4", len(closed), closed)
	}
	wantT := []int64{1, 2, 5, 6}
	for i, ev := range closed {
		if ev.T != wantT[i] {
			t.Fatalf("closure kept wrong events (order not preserved?): %v", closed)
		}
	}
}

// TestCausalClosureUnsortedInput feeds children before parents: span
// order, not input order, must drive resolution.
func TestCausalClosureUnsortedInput(t *testing.T) {
	events := []Event{
		{T: 9, Span: 3, Parent: 2},
		{T: 8, Span: 2, Parent: 1},
		{T: 7, Span: 1},
	}
	closed, orphans := CausalClosure(events)
	if orphans != 0 || len(closed) != 3 {
		t.Fatalf("closure = %v, orphans %d; want all 3 kept", closed, orphans)
	}
}

// TestTee checks fan-out and the nil-dropping contract.
func TestTee(t *testing.T) {
	a, b := NewRing(1, 8), NewRing(1, 8)
	tr := Tee(a, b)
	tr.Record(Event{T: 1, Kind: KindEnter})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Fatalf("tee did not fan out: %d/%d", len(a.Events()), len(b.Events()))
	}
	if got := Tee(a, nil); got != Tracer(a) {
		t.Fatal("Tee(a, nil) should be a itself")
	}
	if got := Tee(nil, b); got != Tracer(b) {
		t.Fatal("Tee(nil, b) should be b itself")
	}
	if got := Tee(nil, nil); got != nil {
		t.Fatal("Tee(nil, nil) should be nil")
	}
}
