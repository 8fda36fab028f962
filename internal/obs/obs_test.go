package obs

import (
	"sync"
	"testing"
	"unsafe"
)

// TestNopZeroAlloc locks down the disabled-tracing cost: recording through
// the Tracer interface to a Nop tracer must not allocate.
func TestNopZeroAlloc(t *testing.T) {
	var tr Tracer = Nop{}
	ev := Event{T: 1, Kind: KindBalancer, P: 3, Tok: 7, Node: 2, Value: -1}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Record(ev)
	})
	if allocs != 0 {
		t.Fatalf("Nop.Record allocates %.1f times per call, want 0", allocs)
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindEnter; k <= kindMax; k++ {
		s := k.String()
		if s == "" {
			t.Fatalf("kind %d has empty name", k)
		}
		back, err := kindFromString(s)
		if err != nil || back != k {
			t.Fatalf("kindFromString(%q) = %v, %v; want %v", s, back, err, k)
		}
	}
	if _, err := kindFromString("bogus"); err == nil {
		t.Fatal("kindFromString accepted a bogus kind")
	}
}

func TestWindow(t *testing.T) {
	events := []Event{
		{T: 10, Kind: KindEnter},             // before window
		{T: 60, Dur: 20, Kind: KindBalancer}, // span [40,60] overlaps
		{T: 75, Kind: KindLink},              // inside
		{T: 120, Dur: 30, Kind: KindExit},    // span [90,120] overlaps end
		{T: 200, Kind: KindExit},             // after window
	}
	got := Window(events, 50, 100)
	if len(got) != 3 {
		t.Fatalf("Window kept %d events (%v), want 3", len(got), got)
	}
	if got[0].T != 60 || got[1].T != 75 || got[2].T != 120 {
		t.Fatalf("Window kept wrong events: %v", got)
	}
	if len(Window(events, 300, 400)) != 0 {
		t.Fatal("empty window returned events")
	}
}

func TestRingBasicAndOrder(t *testing.T) {
	r := NewRing(2, 8)
	r.Record(Event{T: 5, P: 0, Kind: KindEnter})
	r.Record(Event{T: 1, P: 1, Kind: KindEnter})
	r.Record(Event{T: 5, P: 1, Kind: KindExit})
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	// Sorted by T; tie at T=5 broken by shard (P=0 first).
	if evs[0].T != 1 || evs[1].P != 0 || evs[2].P != 1 {
		t.Fatalf("bad merge order: %+v", evs)
	}
	if r.Overwritten() != 0 {
		t.Fatalf("Overwritten = %d, want 0", r.Overwritten())
	}
}

func TestRingWraparoundKeepsNewest(t *testing.T) {
	r := NewRing(1, 4)
	for i := 0; i < 10; i++ {
		r.Record(Event{T: int64(i), P: 0})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.T != int64(6+i) {
			t.Fatalf("retained window %v, want T=6..9 in order", evs)
		}
	}
	if r.Overwritten() != 6 {
		t.Fatalf("Overwritten = %d, want 6", r.Overwritten())
	}
}

// TestRingConcurrent exercises the single-writer-per-processor contract
// under the race detector.
func TestRingConcurrent(t *testing.T) {
	const procs, events = 8, 1000
	r := NewRing(procs, events)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				r.Record(Event{T: int64(i), P: int32(p), Tok: int32(i)})
			}
		}(p)
	}
	wg.Wait()
	evs := r.Events()
	if len(evs) != procs*events {
		t.Fatalf("Events = %d, want %d", len(evs), procs*events)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].T < evs[i-1].T {
			t.Fatalf("events out of time order at %d: %d < %d", i, evs[i].T, evs[i-1].T)
		}
	}
}

// BenchmarkNopRecord measures the disabled-tracing hot path; report shows
// 0 allocs/op.
func BenchmarkNopRecord(b *testing.B) {
	var tr Tracer = Nop{}
	ev := Event{T: 1, Kind: KindBalancer, P: 3, Tok: 7, Node: 2, Value: -1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(ev)
	}
}

// BenchmarkRingRecord measures the enabled-tracing hot path.
func BenchmarkRingRecord(b *testing.B) {
	r := NewRing(1, 1<<16)
	ev := Event{T: 1, Kind: KindBalancer, P: 0, Tok: 7, Node: 2, Value: -1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.T = int64(i)
		r.Record(ev)
	}
}

// TestRingShardLayout pins the shard stride: on an 8-shard ring no two
// shards' counts, which their writers increment on every Record, share an
// aligned 128-byte pair of cache lines.
func TestRingShardLayout(t *testing.T) {
	const pair = 128
	if sz := unsafe.Sizeof(ringShard{}); sz != pair {
		t.Errorf("ringShard is %d bytes, want %d", sz, pair)
	}
	r := NewRing(8, 4)
	owner := map[uintptr]int{}
	for i := range r.shards {
		p := uintptr(unsafe.Pointer(&r.shards[i].n)) / pair
		if prev, ok := owner[p]; ok {
			t.Errorf("shards %d and %d keep their counts in one 128-byte pair", prev, i)
		}
		owner[p] = i
	}
}
