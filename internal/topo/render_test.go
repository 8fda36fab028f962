package topo

import (
	"strings"
	"testing"
)

func TestRenderWidth2(t *testing.T) {
	g := width2(t)
	out := Render(g)
	for _, want := range []string{"layer 1:", "x0,x1", "Y0,Y1", "counters: Y0..Y1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderChained(t *testing.T) {
	b := NewBuilder()
	in := b.Inputs(2)
	a0, a1 := b.Balancer2(in[0], in[1])
	c0, c1 := b.Balancer2(a0, a1)
	b.Terminate([]Out{c0, c1})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	out := Render(g)
	if !strings.Contains(out, "layer 2:") || !strings.Contains(out, "b0.0,b0.1") {
		t.Errorf("chained render:\n%s", out)
	}
}

func TestCertifySmall(t *testing.T) {
	g := width2(t)
	how, err := Certify(g, 1_000_000, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(how, "exhaustive") {
		t.Errorf("small network not certified exhaustively: %q", how)
	}
}

func TestCertifyFallsBackOnBudget(t *testing.T) {
	g := width2(t)
	how, err := Certify(g, 2, 10, 1) // budget too small for exhaustive
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(how, "randomized") {
		t.Errorf("budget exhaustion did not fall back: %q", how)
	}
}

func TestCertifyRejectsNonCounting(t *testing.T) {
	b := NewBuilder()
	in := b.Inputs(4)
	a0, a1 := b.Balancer2(in[0], in[1])
	c0, c1 := b.Balancer2(in[2], in[3])
	b.Terminate([]Out{a0, a1, c0, c1})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Certify(g, 1_000_000, 10, 1); err == nil {
		t.Error("non-counting network certified")
	}
}
