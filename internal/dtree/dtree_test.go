package dtree

import (
	"math/bits"
	"testing"

	"countnet/internal/topo"
)

func TestNewRejectsBadWidth(t *testing.T) {
	for _, w := range []int{0, 1, 3, 12, -8} {
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
		if g.InWidth() != 1 {
			t.Errorf("width %d: in=%d, want single root input", w, g.InWidth())
		}
		if g.OutWidth() != w {
			t.Errorf("width %d: out=%d", w, g.OutWidth())
		}
		if got, want := g.Depth(), bits.Len(uint(w))-1; got != want {
			t.Errorf("width %d: depth %d, want %d", w, got, want)
		}
		if !g.Uniform() {
			t.Errorf("width %d: not uniform", w)
		}
		if got, want := g.NumBalancers(), w-1; got != want {
			t.Errorf("width %d: %d balancers, want %d", w, got, want)
		}
		// Level l has 2^(l-1) one-input two-output nodes.
		for l, want := 1, 1; l <= g.Depth(); l, want = l+1, want*2 {
			nodes := g.LayerNodes(l)
			if len(nodes) != want {
				t.Errorf("width %d level %d: %d nodes, want %d", w, l, len(nodes), want)
			}
			for _, id := range nodes {
				if g.FanIn(id) != 1 || g.FanOut(id) != 2 {
					t.Errorf("width %d level %d: node %d is %dx%d", w, l, id, g.FanIn(id), g.FanOut(id))
				}
			}
		}
	}
}

func TestCountingProperty(t *testing.T) {
	for _, w := range []int{2, 4, 8, 16, 32} {
		g, err := New(w)
		if err != nil {
			t.Fatal(err)
		}
		if err := topo.VerifyCounting(g, 6*w, 40, int64(w)+2); err != nil {
			t.Errorf("width %d: %v", w, err)
		}
	}
}

// TestLeafOrdering verifies the bit-reversed leaf indexing: the k-th
// sequential token must receive value k, which forces the first toggle to
// select the low-order bit of the leaf index.
func TestLeafOrdering(t *testing.T) {
	g, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	q := topo.NewSequential(g)
	for k := 0; k < 24; k++ {
		v, err := q.Traverse(0)
		if err != nil {
			t.Fatal(err)
		}
		if v != int64(k) {
			t.Fatalf("sequential token %d received %d", k, v)
		}
	}
}

// TestExhaustiveWidth4 checks the width-4 tree on every token count up to
// 7.
func TestExhaustiveWidth4(t *testing.T) {
	g, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.CheckInputs(g, 7); err != nil {
		t.Error(err)
	}
}

func TestNewArityValidation(t *testing.T) {
	for _, c := range []struct{ w, a int }{{8, 1}, {8, 0}, {6, 2}, {9, 2}, {8, 3}, {1, 2}, {0, 3}} {
		if _, err := NewArity(c.w, c.a); err == nil {
			t.Errorf("NewArity(%d,%d) accepted", c.w, c.a)
		}
	}
}

func TestArityTrees(t *testing.T) {
	for _, c := range []struct{ w, a, depth int }{
		{9, 3, 2}, {27, 3, 3}, {16, 4, 2}, {64, 4, 3}, {25, 5, 2},
	} {
		g, err := NewArity(c.w, c.a)
		if err != nil {
			t.Fatalf("NewArity(%d,%d): %v", c.w, c.a, err)
		}
		if g.Depth() != c.depth {
			t.Errorf("w=%d a=%d: depth %d, want %d", c.w, c.a, g.Depth(), c.depth)
		}
		if !g.Uniform() {
			t.Errorf("w=%d a=%d: not uniform", c.w, c.a)
		}
		if err := topo.VerifyCounting(g, 4*c.w, 25, int64(c.w)); err != nil {
			t.Errorf("w=%d a=%d: %v", c.w, c.a, err)
		}
	}
}

// TestArityExhaustive checks the 9-leaf ternary tree on every token count
// up to 6.
func TestArityExhaustive(t *testing.T) {
	g, err := NewArity(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.CheckInputs(g, 6); err != nil {
		t.Error(err)
	}
}
