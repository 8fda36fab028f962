package obs

import "testing"

// Allocation guards for the span path (enforced, not just reported):
// stamping must stay free when tracing is disabled and allocation-free
// when enabled — the rings and clock write into preallocated shards, so
// a traced chaos run's hot loop never touches the heap.

// TestDisabledSpanStampZeroAlloc pins the disabled path: the engines
// guard stamping behind a nil check on their obs handle, so the cost of
// compiled-in-but-off spans is one branch and zero allocations.
func TestDisabledSpanStampZeroAlloc(t *testing.T) {
	var c *Clock // disabled: engines never call Tick through a nil clock
	var tr Tracer = Nop{}
	ev := Event{T: 1, Kind: KindBalancer, P: 0, Tok: 7, Node: 2, Value: -1}
	allocs := testing.AllocsPerRun(1000, func() {
		if c != nil {
			ev.Span = c.Tick()
		}
		tr.Record(ev)
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %.1f times per op, want 0", allocs)
	}
}

// TestSpanPathAllocs pins the enabled path: Tick plus a Tee fan-out into
// a trace ring and a flight ring is allocation-free per event.
func TestSpanPathAllocs(t *testing.T) {
	c := NewClock()
	tr := Tee(NewRing(1, 1<<12), NewRing(1, 1<<10))
	ev := Event{T: 1, Kind: KindBalancer, P: 0, Tok: 7, Node: 2, Value: -1}
	allocs := testing.AllocsPerRun(1000, func() {
		ev.Parent = ev.Span
		ev.Span = c.Tick()
		tr.Record(ev)
	})
	if allocs != 0 {
		t.Fatalf("enabled span path allocates %.1f times per op, want 0", allocs)
	}
}

func BenchmarkClockTick(b *testing.B) {
	c := NewClock()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Tick()
	}
}

// BenchmarkSpanStampRing is the enabled hot path of a traced engine:
// draw a span id, chain the parent, record into the ring.
func BenchmarkSpanStampRing(b *testing.B) {
	c := NewClock()
	r := NewRing(1, 1<<16)
	ev := Event{Kind: KindBalancer, P: 0, Tok: 7, Node: 2, Value: -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.T = int64(i)
		ev.Parent = ev.Span
		ev.Span = c.Tick()
		r.Record(ev)
	}
}

// BenchmarkTeeRecord measures the two-ring fan-out engines run with both
// a live trace and a black box armed.
func BenchmarkTeeRecord(b *testing.B) {
	tr := Tee(NewRing(1, 1<<16), NewRing(1, 1<<10))
	ev := Event{Kind: KindBalancer, P: 0, Tok: 7, Node: 2, Value: -1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.T = int64(i)
		tr.Record(ev)
	}
}
