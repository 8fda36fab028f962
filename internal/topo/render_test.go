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
	how, err := Certify(g, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	// C(445+2, 2) = 100128 is the most vectors under 100 000.
	if want := "every input vector of up to 445 tokens (99681 vectors)"; !strings.Contains(how, want) {
		t.Errorf("Certify = %q, want %q", how, want)
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
	if _, err := Certify(g, 10, 1); err == nil || !strings.Contains(err.Error(), "inputs [0 0 0 1]") {
		t.Errorf("err = %v, want the failure of inputs [0 0 0 1]", err)
	}
}
