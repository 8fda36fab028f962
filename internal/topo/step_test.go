package topo

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStepperSequentialValues(t *testing.T) {
	g := width2(t)
	q := NewSequential(g)
	for k := 0; k < 10; k++ {
		v, err := q.Traverse(k % 2)
		if err != nil {
			t.Fatal(err)
		}
		if v != int64(k) {
			t.Errorf("token %d received %d", k, v)
		}
	}
	st := q.s
	if !st.Quiescent() {
		t.Error("all tokens done but not quiescent")
	}
	if got := st.CounterCount(0); got != 5 {
		t.Errorf("counter 0 count = %d, want 5", got)
	}
	if got := st.OutputCounts(); got[0] != 5 || got[1] != 5 {
		t.Errorf("OutputCounts = %v", got)
	}
}

// TestStepperSection1Example replays the non-linearizable execution from the
// paper's introduction on the width-2 network: T0 toggles the balancer
// toward A0 and stalls; T1 passes to A1 and returns 1; T2 passes to A0 ahead
// of T0 and returns 0; T0 finally returns 2.
func TestStepperSection1Example(t *testing.T) {
	g := width2(t)
	s := NewStepper(g)
	t0 := s.Inject(0)
	t1 := s.Inject(0)
	t2 := s.Inject(0)

	step := func(tok int) {
		t.Helper()
		if _, err := s.Step(tok); err != nil {
			t.Fatal(err)
		}
	}
	step(t0) // T0 through balancer toward y0, then delayed on the link
	step(t1) // T1 through balancer toward y1
	step(t1) // T1 reaches A1
	step(t2) // T2 through balancer toward y0
	step(t2) // T2 reaches A0 ahead of T0
	step(t0) // T0 finally reaches A0

	want := map[int]int64{t0: 2, t1: 1, t2: 0}
	for tok, w := range want {
		v, done := s.Value(tok)
		if !done || v != w {
			t.Errorf("token %d value = %d (done=%v), want %d", tok, v, done, w)
		}
	}
}

func TestStepperErrors(t *testing.T) {
	g := width2(t)
	s := NewStepper(g)
	if _, err := s.Step(0); err == nil {
		t.Error("Step of unknown token succeeded")
	}
	tok := s.Inject(0)
	if _, err := s.Run(tok); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(tok); err == nil {
		t.Error("Step of finished token succeeded")
	}
	if v, done := s.Value(tok); !done || v != 0 {
		t.Errorf("Value = %d, %v", v, done)
	}
}

func TestStepperTrackPaths(t *testing.T) {
	g := width2(t)
	s := NewStepper(g)
	s.TrackPaths()
	tok := s.Inject(0)
	if v, err := s.Run(tok); err != nil || v != 0 {
		t.Fatalf("Run = %d, %v; want 0", v, err)
	}
	path := s.Path(tok)
	if len(path) != 2 {
		t.Fatalf("path = %v, want balancer+counter", path)
	}
	if g.KindOf(path[0]) != KindBalancer || g.KindOf(path[1]) != KindCounter {
		t.Errorf("path kinds wrong: %v", path)
	}
	if s.counts[path[0]] != 1 {
		t.Errorf("balancer out count = %d", s.counts[path[0]])
	}
}

func TestStepPropertyHolds(t *testing.T) {
	cases := []struct {
		counts []int64
		want   bool
	}{
		{[]int64{}, true},
		{[]int64{5}, true},
		{[]int64{2, 2, 1, 1}, true},
		{[]int64{2, 1, 2, 1}, false},
		{[]int64{1, 2}, false},
		{[]int64{3, 1}, false},
		{[]int64{0, 0, 0}, true},
	}
	for _, c := range cases {
		if got := StepPropertyHolds(c.counts); got != c.want {
			t.Errorf("StepPropertyHolds(%v) = %v, want %v", c.counts, got, c.want)
		}
	}
}

func TestStepCountsProperty(t *testing.T) {
	f := func(mRaw uint16, wRaw uint8) bool {
		m := int64(mRaw)
		w := int(wRaw)%64 + 1
		counts := StepCounts(m, w)
		var sum int64
		for _, c := range counts {
			sum += c
		}
		return sum == m && StepPropertyHolds(counts)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRandomInterleavingsPermutation checks on the width-2 network that any
// interleaving hands out a permutation of 0..m-1 once quiescent.
func TestRandomInterleavingsPermutation(t *testing.T) {
	g := width2(t)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		s := NewStepper(g)
		m := 1 + rng.Intn(12)
		live := make([]int, m)
		for i := range live {
			live[i] = s.Inject(rng.Intn(2))
		}
		seen := make(map[int64]bool, m)
		for len(live) > 0 {
			i := rng.Intn(len(live))
			done, err := s.Step(live[i])
			if err != nil {
				t.Fatal(err)
			}
			if done {
				v, _ := s.Value(live[i])
				if seen[v] {
					t.Fatalf("value %d assigned twice", v)
				}
				seen[v] = true
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		for k := 0; k < m; k++ {
			if !seen[int64(k)] {
				t.Fatalf("trial %d: value %d missing from %d tokens", trial, k, m)
			}
		}
	}
}
