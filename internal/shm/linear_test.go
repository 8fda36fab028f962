package shm

import (
	"testing"
	"time"

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

// TestTurnReseed checks the gate releases in value order from its seed:
// after Reseed(5), a Release of 6 waits until 5 has been released.
func TestTurnReseed(t *testing.T) {
	var turn Turn
	turn.Reseed(5)
	done := make(chan int64)
	go func() { done <- turn.Release(6) }()
	select {
	case v := <-done:
		t.Fatalf("Release(6) returned %d before 5 was released", v)
	case <-time.After(time.Millisecond):
	}
	if v := turn.Release(5); v != 5 {
		t.Fatalf("Release(5) = %d", v)
	}
	if v := <-done; v != 6 {
		t.Fatalf("Release(6) = %d", v)
	}
	if turn.Next() != 7 {
		t.Fatalf("Next = %d after releasing 5 and 6", turn.Next())
	}
}

// slowTraverse is Traverse with a stall after every node, used to inject
// the paper's W anomaly inside the network. The wait-then-release step is
// the filter's own, so the test path cannot drift from the real one.
func (f *Filter) slowTraverse(input int, stall time.Duration) int64 {
	return f.turn.Release(f.net.TraverseObs(input, 0, 0, func(topo.NodeID) {
		deadline := time.Now().Add(stall)
		for time.Now().Before(deadline) {
		}
	}))
}
