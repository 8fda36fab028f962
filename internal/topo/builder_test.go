package topo

import (
	"strings"
	"testing"
)

// width2 builds the Section 1 network: one balancer B and two counters.
func width2(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	in := b.Inputs(2)
	o0, o1 := b.Balancer2(in[0], in[1])
	b.Terminate([]Out{o0, o1})
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuilderWidth2(t *testing.T) {
	g := width2(t)
	if got := g.InWidth(); got != 2 {
		t.Errorf("InWidth = %d, want 2", got)
	}
	if got := g.OutWidth(); got != 2 {
		t.Errorf("OutWidth = %d, want 2", got)
	}
	if got := g.NumBalancers(); got != 1 {
		t.Errorf("NumBalancers = %d, want 1", got)
	}
	if got := g.Depth(); got != 1 {
		t.Errorf("Depth = %d, want 1", got)
	}
	if !g.Uniform() {
		t.Error("width-2 network should be uniform")
	}
	bal := g.Balancers()
	if len(bal) != 1 {
		t.Fatalf("Balancers = %v, want one node", bal)
	}
	if g.KindOf(bal[0]) != KindBalancer {
		t.Errorf("KindOf(balancer) = %v", g.KindOf(bal[0]))
	}
	if g.Layer(bal[0]) != 1 {
		t.Errorf("balancer layer = %d, want 1", g.Layer(bal[0]))
	}
	for i := 0; i < 2; i++ {
		c := g.counters[i]
		if g.KindOf(c) != KindCounter {
			t.Errorf("counter %d kind = %v", i, g.KindOf(c))
		}
		if g.CounterIndex(c) != i {
			t.Errorf("CounterIndex = %d, want %d", g.CounterIndex(c), i)
		}
		if g.Layer(c) != 2 {
			t.Errorf("counter layer = %d, want 2", g.Layer(c))
		}
	}
	if g.CounterIndex(bal[0]) != -1 {
		t.Error("CounterIndex of a balancer should be -1")
	}
}

// TestBuilderDoubleConsume covers each kind of wire end a second consumer
// can take: a balancer output, a network input, and a wire handed to
// Terminate twice. The Builder keeps no consumed set; a wire end counts as
// consumed once its destination slot holds a node.
func TestBuilderDoubleConsume(t *testing.T) {
	for name, build := range map[string]func(b *Builder, in []Out){
		"balancer output": func(b *Builder, in []Out) {
			o0, o1 := b.Balancer2(in[0], in[1])
			p0, p1 := b.Balancer2(o0, o0) // same wire twice
			b.Terminate([]Out{o1, p0, p1})
		},
		"network input": func(b *Builder, in []Out) {
			o0, o1 := b.Balancer2(in[0], in[1])
			b.Terminate([]Out{o0, o1, b.Balancer11(in[0])})
		},
		"terminate": func(b *Builder, in []Out) {
			o0, _ := b.Balancer2(in[0], in[1])
			b.Terminate([]Out{o0, o0})
		},
	} {
		b := NewBuilder()
		build(b, b.Inputs(2))
		_, err := b.Build()
		if err == nil || !strings.Contains(err.Error(), "consumed twice") {
			t.Errorf("%s: Build error = %v, want a consumed-twice error", name, err)
		}
	}
}

func TestBuilderDanglingOutput(t *testing.T) {
	b := NewBuilder()
	in := b.Inputs(2)
	o0, _ := b.Balancer2(in[0], in[1]) // o1 dangling
	b.Terminate([]Out{o0})
	if _, err := b.Build(); err == nil {
		t.Fatal("Build succeeded with a dangling balancer output")
	}
}

func TestBuilderUnconsumedInput(t *testing.T) {
	b := NewBuilder()
	in := b.Inputs(2)
	o := b.Balancer11(in[0]) // in[1] never consumed
	b.Terminate([]Out{o})
	if _, err := b.Build(); err == nil {
		t.Fatal("Build succeeded with an unconsumed network input")
	}
}

func TestBuilderMissingTerminate(t *testing.T) {
	b := NewBuilder()
	in := b.Inputs(2)
	b.Balancer2(in[0], in[1])
	if _, err := b.Build(); err == nil {
		t.Fatal("Build succeeded without Terminate")
	}
}

func TestBuilderNoInputs(t *testing.T) {
	b := NewBuilder()
	if _, err := b.Build(); err == nil {
		t.Fatal("Build succeeded on an empty builder")
	}
}

func TestBuilderZeroOut(t *testing.T) {
	b := NewBuilder()
	b.Inputs(1)
	b.Balancer11(Out{})
	if _, err := b.Build(); err == nil {
		t.Fatal("Build succeeded after consuming a zero Out")
	}
}

func TestBuilderForeignOut(t *testing.T) {
	b1 := NewBuilder()
	b2 := NewBuilder()
	in1 := b1.Inputs(1)
	b2.Inputs(1)
	b2.Balancer11(in1[0])
	if _, err := b2.Build(); err == nil {
		t.Fatal("Build succeeded after consuming a foreign Out")
	}
}

func TestBuilderTerminateTwice(t *testing.T) {
	b := NewBuilder()
	in := b.Inputs(2)
	o0, o1 := b.Balancer2(in[0], in[1])
	b.Terminate([]Out{o0})
	b.Terminate([]Out{o1})
	if _, err := b.Build(); err == nil {
		t.Fatal("Build succeeded despite double Terminate")
	}
}

func TestBuilderSingleUse(t *testing.T) {
	b := NewBuilder()
	in := b.Inputs(2)
	o0, o1 := b.Balancer2(in[0], in[1])
	b.Terminate([]Out{o0, o1})
	if _, err := b.Build(); err != nil {
		t.Fatalf("first Build: %v", err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("second Build succeeded; Builder must be single-use")
	}
	// Post-build construction calls must be inert, not corrupting.
	extra := b.Inputs(1)
	b.Balancer11(extra[0])
}

func TestBuilderBadBalancerShape(t *testing.T) {
	for name, build := range map[string]func(b *Builder, in []Out){
		"no inputs":   func(b *Builder, in []Out) { b.BalancerN(nil, make([]Out, 2)) },
		"zero fanout": func(b *Builder, in []Out) { b.BalancerN(in, nil) },
	} {
		b := NewBuilder()
		in := b.Inputs(1)
		build(b, in)
		if _, err := b.Build(); err == nil {
			t.Errorf("%s: Build succeeded", name)
		}
	}
}

func TestNonUniformDetected(t *testing.T) {
	// in0 passes one balancer, in1 passes two, then they merge: paths of
	// unequal length reach the merging balancer.
	b := NewBuilder()
	in := b.Inputs(2)
	a := b.Balancer11(in[0])
	c := b.Balancer11(b.Balancer11(in[1]))
	o0, o1 := b.Balancer2(a, c)
	b.Terminate([]Out{o0, o1})
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.Uniform() {
		t.Error("network with unequal-length paths reported uniform")
	}
	if g.Depth() != 3 {
		t.Errorf("Depth = %d, want 3 (longest path)", g.Depth())
	}
}

func TestDirectInputToCounter(t *testing.T) {
	b := NewBuilder()
	in := b.Inputs(1)
	b.Terminate([]Out{in[0]})
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.Depth() != 0 {
		t.Errorf("Depth = %d, want 0", g.Depth())
	}
	q := NewSequential(g)
	for k := 0; k < 3; k++ {
		v, err := q.Traverse(0)
		if err != nil {
			t.Fatal(err)
		}
		if v != int64(k) {
			t.Errorf("token %d got value %d", k, v)
		}
	}
}

func TestDotAndSummary(t *testing.T) {
	g := width2(t)
	dot := Dot(g, "w2")
	for _, want := range []string{"digraph", "x0", "x1", "Y0", "Y1", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("Dot output missing %q:\n%s", want, dot)
		}
	}
	s := Summary(g)
	if !strings.Contains(s, "depth 1") || !strings.Contains(s, "uniform") {
		t.Errorf("Summary = %q", s)
	}
}
