package shm

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"countnet/internal/bitonic"
	"countnet/internal/dtree"
	"countnet/internal/lincheck"
	"countnet/internal/topo"
)

func TestFilterSequential(t *testing.T) {
	g, err := dtree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	n := compile(t, g, Options{Kind: KindMCS})
	f := NewFilter(n)
	for k := 0; k < 20; k++ {
		if v := f.Traverse(0); v != int64(k) {
			t.Fatalf("value %d != %d", v, k)
		}
	}
	if f.Returned() != 20 {
		t.Fatalf("Returned = %d", f.Returned())
	}
}

// TestFilterIsLinearizable checks the whole point: under the same injected
// anomalies that make the bare network return out-of-order values, the
// filtered counter never produces a non-linearizable operation.
func TestFilterIsLinearizable(t *testing.T) {
	g, err := dtree.New(8)
	if err != nil {
		t.Fatal(err)
	}
	n := compile(t, g, Options{Kind: KindMCS})
	f := NewFilter(n)
	ops, err := Drive(time.Now(), 8, 1600, func(proc, _ int32) (int64, error) {
		if proc == 0 {
			// One chronically slow worker: pause mid-operation by
			// traversing with a stall hook.
			return f.slowTraverse(0, 5*time.Microsecond), nil
		}
		return f.Traverse(0), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep := lincheck.Analyze(ops); !rep.Linearizable() {
		t.Errorf("filtered counter produced violations: %v", rep)
	}
}

// TestTurnReleaseOrder checks the zero gate releases in value order from
// 0: a Release of 1 waits until 0 has been released.
func TestTurnReleaseOrder(t *testing.T) {
	var turn Turn
	done := make(chan int64)
	go func() { done <- turn.Release(1) }()
	select {
	case v := <-done:
		t.Fatalf("Release(1) returned %d before 0 was released", v)
	case <-time.After(time.Millisecond):
	}
	if v := turn.Release(0); v != 0 {
		t.Fatalf("Release(0) = %d", v)
	}
	if v := <-done; v != 1 {
		t.Fatalf("Release(1) = %d", v)
	}
	if turn.Next() != 2 {
		t.Fatalf("Next = %d after releasing 0 and 1", turn.Next())
	}
}

// TestTurnParkHandoff checks the direct hand-off: the holder of value 0
// sleeps past the waiter's yield budget, so the waiter for 1 parks; the
// release of 0 must wake it, and it must leave the park registry empty.
// A waiter that parks after its turn has arrived must not block.
func TestTurnParkHandoff(t *testing.T) {
	var turn Turn
	done := make(chan int64)
	go func() { done <- turn.Release(1) }()
	deadline := time.Now().Add(10 * time.Second)
	for turn.parked.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the waiter for 1 never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case v := <-done:
		t.Fatalf("Release(1) returned %d before 0 was released", v)
	default:
	}
	if v := turn.Release(0); v != 0 {
		t.Fatalf("Release(0) = %d", v)
	}
	select {
	case v := <-done:
		if v != 1 {
			t.Fatalf("Release(1) = %d", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the parked waiter for 1 was not woken by the release of 0")
	}
	if n := turn.parked.Load(); n != 0 {
		t.Errorf("parked = %d after the hand-off, want 0", n)
	}
	if n := len(turn.waiters); n != 0 {
		t.Errorf("%d waiters still registered after the hand-off", n)
	}
	if turn.Next() != 2 {
		t.Errorf("Next = %d after releasing 0 and 1", turn.Next())
	}

	// The registration race: a waiter whose turn arrives after its last
	// poll but before it parks must see the turn when it re-reads next,
	// since no release is left to wake it.
	parked := make(chan struct{})
	go func() { turn.park(2); close(parked) }()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("park(2) blocked although the turn was already 2")
	}
	if n, w := turn.parked.Load(), len(turn.waiters); n != 0 || w != 0 {
		t.Errorf("parked = %d, %d waiters registered after a withdrawn park", n, w)
	}
}

// TestTurnLayout pins the line every waiter polls and every release
// reads: next and parked share a Turn's first cache line, and the park
// registry, written only by a parking waiter and its waker, starts past
// it.
func TestTurnLayout(t *testing.T) {
	const cacheLine = 64
	var turn Turn
	if off := unsafe.Offsetof(turn.parked); off+unsafe.Sizeof(turn.parked) > cacheLine {
		t.Errorf("parked at offset %d, off next's line", off)
	}
	if off := unsafe.Offsetof(turn.mu); off < cacheLine {
		t.Errorf("park registry at offset %d, on next's line", off)
	}
}

// TestFilterLayout pins the line every ModeLinear waiter polls: at any
// 8-byte-aligned start, the lines holding the turn's next and parked
// words carry no word a token only reads. net, read by every token, ends
// a full line minus a word before next, and the park registry's map
// starts that far past parked. It checks the offsets and then the lines
// of live Filters.
func TestFilterLayout(t *testing.T) {
	const cacheLine, word = 64, 8
	var f Filter
	next := unsafe.Offsetof(f.turn) + unsafe.Offsetof(f.turn.next)
	parked := unsafe.Offsetof(f.turn) + unsafe.Offsetof(f.turn.parked)
	waiters := unsafe.Offsetof(f.turn) + unsafe.Offsetof(f.turn.waiters)
	if gap := next - (unsafe.Offsetof(f.net) + word); gap < cacheLine-word {
		t.Errorf("net ends %d bytes before next, want at least %d", gap, cacheLine-word)
	}
	if gap := waiters - (parked + word); gap < cacheLine-word {
		t.Errorf("waiters starts %d bytes after parked, want at least %d", gap, cacheLine-word)
	}

	g, err := bitonic.New(2)
	if err != nil {
		t.Fatal(err)
	}
	n := compile(t, g, Options{})
	line := func(p unsafe.Pointer) uintptr { return uintptr(p) / cacheLine }
	for i := 0; i < 64; i++ {
		f := NewFilter(n)
		polled := map[uintptr]bool{line(unsafe.Pointer(&f.turn.next)): true, line(unsafe.Pointer(&f.turn.parked)): true}
		for name, p := range map[string]unsafe.Pointer{"net": unsafe.Pointer(&f.net), "waiters": unsafe.Pointer(&f.turn.waiters)} {
			if polled[line(p)] {
				t.Fatalf("%s shares a line with the turn's next or parked (Filter at %p)", name, f)
			}
		}
	}
}

// TestTurnOversubscribed pushes values through a Filter from 256
// goroutines on one and on two processors. Every 256th token stalls
// while holding its value, so the waiters behind it exhaust their yield
// budget and park. Every value must come back exactly once and in
// real-time order (no operation may return a value larger than one that
// started after it returned), and the run must finish within a
// wall-clock deadline: a lost wake-up would hang it.
func TestTurnOversubscribed(t *testing.T) {
	const workers = 256
	const ops = workers * 8
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			g, err := bitonic.New(4)
			if err != nil {
				t.Fatal(err)
			}
			f := NewFilter(compile(t, g, Options{Kind: KindMCS}))
			type result struct {
				ops []lincheck.Op
				err error
			}
			done := make(chan result, 1)
			go func() {
				log, err := Drive(time.Now(), workers, ops, func(proc, tok int32) (int64, error) {
					if tok%workers != 0 {
						return f.Traverse(int(tok) % 4), nil
					}
					// Every 256th token holds its value for 2ms, long
					// enough for the tokens behind it to park.
					v, _ := f.net.TraverseSpan(0, proc, tok, 0, func(id topo.NodeID) {
						if g.KindOf(id) == topo.KindCounter {
							time.Sleep(2 * time.Millisecond)
						}
					})
					return f.turn.Release(v), nil
				})
				done <- result{log, err}
			}()
			var res result
			select {
			case res = <-done:
			case <-time.After(60 * time.Second):
				t.Fatalf("%d ops on %d goroutines did not finish: turn wait stalled", ops, workers)
			}
			if res.err != nil {
				t.Fatal(res.err)
			}
			seen := make([]bool, ops)
			for _, op := range res.ops {
				if op.Value < 0 || op.Value >= ops || seen[op.Value] {
					t.Fatalf("value %d duplicated or out of range [0,%d)", op.Value, ops)
				}
				seen[op.Value] = true
			}
			if rep := lincheck.Analyze(res.ops); !rep.Linearizable() {
				t.Errorf("turn released values out of order: %v", rep)
			}
			if f.Returned() != ops {
				t.Errorf("Returned = %d, want %d", f.Returned(), ops)
			}
			if n := f.turn.parked.Load(); n != 0 {
				t.Errorf("parked = %d at quiescence, want 0", n)
			}
		})
	}
}

// slowTraverse is Traverse with a stall after every node, used to inject
// the paper's W anomaly inside the network. The wait-then-release step is
// the filter's own, so the test path cannot drift from the real one.
func (f *Filter) slowTraverse(input int, stall time.Duration) int64 {
	v, _ := f.net.TraverseSpan(input, 0, 0, 0, func(topo.NodeID) {
		deadline := time.Now().Add(stall)
		for time.Now().Before(deadline) {
		}
	})
	return f.turn.Release(v)
}
