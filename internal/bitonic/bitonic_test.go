package bitonic

import (
	"testing"

	"countnet/internal/topo"
)

func TestNewRejectsBadWidth(t *testing.T) {
	for _, w := range []int{0, 1, 3, 6, 12, -4} {
		if _, err := New(w); err == nil {
			t.Errorf("New(%d) succeeded", w)
		}
	}
}

func TestShape(t *testing.T) {
	for _, w := range []int{2, 4, 8, 16, 32} {
		g, err := New(w)
		if err != nil {
			t.Fatalf("New(%d): %v", w, err)
		}
		if g.InWidth() != w || g.OutWidth() != w {
			t.Errorf("width %d: in=%d out=%d", w, g.InWidth(), g.OutWidth())
		}
		if got, want := g.Depth(), Depth(w); got != want {
			t.Errorf("width %d: depth %d, want %d", w, got, want)
		}
		if !g.Uniform() {
			t.Errorf("width %d: not uniform", w)
		}
		// Every layer of a bitonic network covers all w wires with w/2
		// balancers of fan-in/out 2.
		for l := 1; l <= g.Depth(); l++ {
			nodes := g.LayerNodes(l)
			if len(nodes) != w/2 {
				t.Errorf("width %d layer %d: %d balancers, want %d", w, l, len(nodes), w/2)
			}
			for _, id := range nodes {
				if g.FanIn(id) != 2 || g.FanOut(id) != 2 {
					t.Errorf("width %d layer %d: node %d is %dx%d", w, l, id, g.FanIn(id), g.FanOut(id))
				}
			}
		}
		if got, want := g.NumBalancers(), w/2*Depth(w); got != want {
			t.Errorf("width %d: %d balancers, want %d", w, got, want)
		}
	}
}

func TestDepthFormula(t *testing.T) {
	want := map[int]int{2: 1, 4: 3, 8: 6, 16: 10, 32: 15, 64: 21}
	for w, d := range want {
		if got := Depth(w); got != d {
			t.Errorf("Depth(%d) = %d, want %d", w, got, d)
		}
	}
}

func TestCountingProperty(t *testing.T) {
	for _, w := range []int{2, 4, 8, 16} {
		g, err := New(w)
		if err != nil {
			t.Fatal(err)
		}
		if err := topo.VerifyCounting(g, 6*w, 40, int64(w)); err != nil {
			t.Errorf("width %d: %v", w, err)
		}
	}
}

func TestCountingPropertyWidth32(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g, err := New(32)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.VerifyCounting(g, 4*32, 15, 99); err != nil {
		t.Error(err)
	}
}

// TestLemma42 verifies Lemma 4.2: after T0 traverses alone via input x0,
// tokens T1 and T2 entering via x0 one after another exit on y1 and y2, and
// share no balancer except the entry balancer.
func TestLemma42(t *testing.T) {
	for _, w := range []int{4, 8, 16, 32} {
		g, err := New(w)
		if err != nil {
			t.Fatal(err)
		}
		s := topo.NewStepper(g)
		s.TrackPaths()
		t0 := s.Inject(0)
		if v, err := s.Run(t0); err != nil || v != 0 {
			t.Fatalf("width %d: T0 value = %d, err %v", w, v, err)
		}
		t1 := s.Inject(0)
		if v, err := s.Run(t1); err != nil || v != 1 {
			t.Fatalf("width %d: T1 value = %d, err %v", w, v, err)
		}
		t2 := s.Inject(0)
		if v, err := s.Run(t2); err != nil || v != 2 {
			t.Fatalf("width %d: T2 value = %d, err %v", w, v, err)
		}
		// Values 1 and 2 exit via outputs y1 and y2 by definition of the
		// counters; check path disjointness.
		p1, p2 := s.Path(t1), s.Path(t2)
		shared := map[topo.NodeID]bool{}
		for _, id := range p1 {
			if g.KindOf(id) == topo.KindBalancer {
				shared[id] = true
			}
		}
		var common []topo.NodeID
		for _, id := range p2 {
			if shared[id] {
				common = append(common, id)
			}
		}
		if len(common) != 1 {
			t.Errorf("width %d: T1 and T2 share %d balancers (%v), want only the entry", w, len(common), common)
		}
		if len(common) == 1 && common[0] != p1[0] {
			t.Errorf("width %d: shared balancer %d is not the entry %d", w, common[0], p1[0])
		}
	}
}

// TestExhaustiveWidth4 checks Bitonic[4] on every input vector of up to 5
// tokens: each leaves the outputs in the step counts of its total, whatever
// the interleaving, since quiescent tallies depend on the input counts
// alone.
func TestExhaustiveWidth4(t *testing.T) {
	g, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.CheckInputs(g, 5); err != nil {
		t.Error(err)
	}
}
