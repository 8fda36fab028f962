package obs

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// dumpAndRead dumps events under reason and reads the file back.
func dumpAndRead(t *testing.T, meta Meta, reason string, events []Event) (Meta, []Event) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	if err := Dump(path, meta, reason, events); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	meta, events, err = ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	return meta, events
}

// TestFlightSnapshotClosedAndOrdered fills a shard past capacity and
// checks the dump is the causally closed newest window in span order.
func TestFlightSnapshotClosedAndOrdered(t *testing.T) {
	r := NewRing(1, 4)
	// One chain of six events on one shard: spans 1..6, each parented on
	// the previous. Capacity 4 retains spans 3..6, but span 3's parent
	// (2) was overwritten, so the whole retained chain is orphaned and
	// closure drops all four.
	for i := 1; i <= 6; i++ {
		r.Record(Event{T: int64(i), Span: uint64(i), Parent: uint64(i - 1), Kind: KindBalancer, P: 0})
	}
	if _, events := dumpAndRead(t, Meta{}, "test", r.Events()); len(r.Events()) != 4 || len(events) != 0 {
		t.Fatalf("broken-chain dump kept %d of %d retained events, want 0 of 4", len(events), len(r.Events()))
	}

	// Fresh roots inside the window survive, in span order however the
	// shards' timestamps interleave.
	r2 := NewRing(2, 4)
	r2.Record(Event{T: 1, Span: 1, Kind: KindEnter, P: 0})
	r2.Record(Event{T: 2, Span: 3, Parent: 1, Kind: KindExit, P: 0})
	r2.Record(Event{T: 3, Span: 2, Kind: KindEnter, P: 1})
	_, events := dumpAndRead(t, Meta{}, "test", r2.Events())
	if len(events) != 3 {
		t.Fatalf("dump = %v, want 3 events", events)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Span < events[i-1].Span {
			t.Fatalf("dump not in span order: %v", events)
		}
	}
}

// TestFlightDumpReadsBack round-trips a dump through ReadJSONL and checks
// the reason lands in the meta header.
func TestFlightDumpReadsBack(t *testing.T) {
	r := NewRing(2, 16)
	r.Record(Event{T: 1, Span: 1, Kind: KindEnter, P: 0, Tok: 0, Node: -1, Value: -1})
	r.Record(Event{T: 2, Dur: 1, Span: 2, Parent: 1, Kind: KindBalancer, P: 0, Tok: 0, Node: 3, Value: -1})
	meta, events := dumpAndRead(t, Meta{Engine: "msgnet", Unit: "ns", Net: "bitonic", Width: 4}, "lincheck-violation", r.Events())
	if meta.Reason != "lincheck-violation" || meta.Engine != "msgnet" {
		t.Fatalf("dump meta = %+v", meta)
	}
	if len(events) != 2 || events[1].Parent != 1 || events[1].Span != 2 {
		t.Fatalf("dump events = %+v", events)
	}
}

// TestFlightTripOnce checks the black-box contract: the first Trip names
// the reason and freezes the recorder, later trips are no-ops, and the
// dump carries the first reason.
func TestFlightTripOnce(t *testing.T) {
	r := NewRing(1, 8)
	r.Record(Event{T: 1, Span: 1, Kind: KindEnter})
	if got := r.Tripped(); got != "" {
		t.Fatalf("untripped recorder reports %q", got)
	}
	r.Trip("liveness-valve")
	r.Record(Event{T: 2, Span: 2, Parent: 1, Kind: KindExit})
	r.Trip("panic")
	if got := r.Tripped(); got != "liveness-valve" {
		t.Fatalf("Tripped = %q, want the first reason", got)
	}
	if n := len(r.Events()); n != 1 {
		t.Fatalf("frozen recorder holds %d events, want 1", n)
	}
	if meta, _ := dumpAndRead(t, Meta{Engine: "test", Unit: "ns"}, r.Tripped(), r.Events()); meta.Reason != "liveness-valve" {
		t.Fatalf("dump reason = %q", meta.Reason)
	}
}

// TestFlightRecoverDump checks the panic path a driver defers: recover,
// trip with reason "panic", dump, and re-panic.
func TestFlightRecoverDump(t *testing.T) {
	r := NewRing(1, 8)
	path := filepath.Join(t.TempDir(), "crash.jsonl")
	r.Record(Event{T: 1, Span: 1, Kind: KindEnter})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the panic was swallowed")
			}
		}()
		defer func() {
			if p := recover(); p != nil {
				r.Trip("panic")
				if err := Dump(path, Meta{Engine: "test", Unit: "ns"}, r.Tripped(), r.Events()); err != nil {
					t.Error(err)
				}
				panic(p)
			}
		}()
		panic("boom")
	}()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	meta, events, err := ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Reason != "panic" || len(events) != 1 {
		t.Fatalf("crash dump = %+v, %d events", meta, len(events))
	}
}

// TestFlightTripDuringRecording trips the recorder while writers are
// live, joins them, then dumps. The dump must be the pre-trip window,
// causally closed and in span order, plus at most one event per writer
// that passed the freeze check before the trip and landed after it. Run
// under -race.
func TestFlightTripDuringRecording(t *testing.T) {
	const procs, perProc = 4, 64
	r := NewRing(procs, perProc)
	c := NewClock()
	stop := make(chan struct{})
	attempted := make([][]Event, procs)
	var tries [procs]atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// Tokens of four chained events, recorded until stop.
			var parent uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ev := Event{T: int64(i), P: int32(p), Tok: int32(i / 4), Kind: KindBalancer, Span: c.Tick()}
				if i%4 != 0 {
					ev.Parent = parent
				}
				parent = ev.Span
				r.Record(ev)
				attempted[p] = append(attempted[p], ev)
				tries[p].Add(1)
			}
		}(p)
	}
	// Trip once every shard has wrapped twice, and stop the writers once
	// each has made at least one more attempt after the trip.
	waitAll := func(ok func(p int) bool) {
		for p := 0; p < procs; p++ {
			for !ok(p) {
				runtime.Gosched()
			}
		}
	}
	waitAll(func(p int) bool { return r.shards[p].n.Load() >= 2*perProc })
	r.Trip("test")
	var pre, tried [procs]int64
	for p := range pre {
		pre[p], tried[p] = r.shards[p].n.Load(), tries[p].Load()
	}
	waitAll(func(p int) bool { return tries[p].Load() >= tried[p]+2 })
	close(stop)
	wg.Wait()

	var want []Event
	for p := 0; p < procs; p++ {
		// Frozen writers drop every later event, so the landed events are
		// a prefix of the attempted ones.
		n := r.shards[p].n.Load()
		if late := n - pre[p]; late > 1 {
			t.Fatalf("writer %d landed %d events after the trip, want at most 1", p, late)
		}
		if n >= int64(len(attempted[p])) {
			t.Fatalf("writer %d: all %d attempts landed; the trip froze nothing", p, n)
		}
		window := attempted[p][n-perProc : n]
		// The token wraparound cut is orphaned: the dump drops it.
		for len(window) > 0 && window[0].Parent != 0 {
			window = window[1:]
		}
		want = append(want, window...)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Span < want[j].Span })
	meta, got := dumpAndRead(t, Meta{}, r.Tripped(), r.Events())
	if meta.Reason != "test" {
		t.Fatalf("dump reason = %q", meta.Reason)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("dump holds %d events, want the %d of the pre-trip window", len(got), len(want))
	}
}
