package periodic

import (
	"testing"

	"countnet/internal/topo"
)

func TestNewRejectsBadWidth(t *testing.T) {
	for _, w := range []int{0, 1, 3, 10, -2} {
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
		if got, want := g.NumBalancers(), w/2*Depth(w); got != want {
			t.Errorf("width %d: %d balancers, want %d", w, got, want)
		}
	}
}

func TestDepthFormula(t *testing.T) {
	want := map[int]int{2: 1, 4: 4, 8: 9, 16: 16, 32: 25}
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
		if err := topo.VerifyCounting(g, 6*w, 40, int64(w)+1); err != nil {
			t.Errorf("width %d: %v", w, err)
		}
	}
}

// TestExhaustiveWidth4 checks Periodic[4] on every input vector of up to 4
// tokens.
func TestExhaustiveWidth4(t *testing.T) {
	g, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.CheckInputs(g, 4); err != nil {
		t.Error(err)
	}
}
