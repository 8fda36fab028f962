package topo

import (
	"strings"
	"testing"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g := width2(t)
	data, err := Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if g2.InWidth() != g.InWidth() || g2.OutWidth() != g.OutWidth() ||
		g2.Depth() != g.Depth() || g2.NumBalancers() != g.NumBalancers() ||
		g2.Uniform() != g.Uniform() {
		t.Fatalf("round trip changed shape: %s vs %s", Summary(g), Summary(g2))
	}
	// Behavioural equality: same sequential values.
	q1, q2 := NewSequential(g), NewSequential(g2)
	for k := 0; k < 8; k++ {
		v1, err1 := q1.Traverse(k % g.InWidth())
		v2, err2 := q2.Traverse(k % g.InWidth())
		if err1 != nil || err2 != nil || v1 != v2 {
			t.Fatalf("traversal diverged at %d: %d vs %d", k, v1, v2)
		}
	}
}

func TestEncodeDecodeComplexGraphs(t *testing.T) {
	// Padded non-trivial graph exercises chains and layer structure.
	g := width2(t)
	p, err := Pad(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Depth() != p.Depth() || p2.NumBalancers() != p.NumBalancers() {
		t.Fatalf("round trip changed padded shape")
	}
	if err := VerifyCounting(p2, 12, 10, 1); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":        "}{",
		"no inputs":       `{"inputs":0,"balancers":[],"counters":[]}`,
		"bad input ref":   `{"inputs":1,"balancers":[{"in":[{"input":5}],"fanOut":1}],"counters":[{"input":-1,"node":0,"port":0}]}`,
		"forward ref":     `{"inputs":1,"balancers":[{"in":[{"input":-1,"node":1,"port":0}],"fanOut":1}],"counters":[{"input":-1,"node":0,"port":0}]}`,
		"bad port":        `{"inputs":1,"balancers":[{"in":[{"input":0}],"fanOut":1}],"counters":[{"input":-1,"node":0,"port":7}]}`,
		"double consume":  `{"inputs":1,"balancers":[{"in":[{"input":0},{"input":0}],"fanOut":2}],"counters":[{"input":-1,"node":0,"port":0},{"input":-1,"node":0,"port":1}]}`,
		"dangling output": `{"inputs":2,"balancers":[{"in":[{"input":0},{"input":1}],"fanOut":2}],"counters":[{"input":-1,"node":0,"port":0}]}`,
		"huge inputs":     `{"inputs":1000000000000000,"balancers":[],"counters":[{"input":0}]}`,
		"huge fanOut":     `{"inputs":1,"balancers":[{"in":[{"input":0}],"fanOut":1000000000000000}],"counters":[{"input":-1,"node":0,"port":0}]}`,
	}
	for name, data := range cases {
		if _, err := Decode([]byte(data)); err == nil {
			t.Errorf("%s: decoded successfully", name)
		}
	}
}

func TestEncodeNil(t *testing.T) {
	if _, err := Encode(nil); err == nil {
		t.Error("Encode(nil) succeeded")
	}
}

func TestEncodeIsJSON(t *testing.T) {
	g := width2(t)
	data, err := Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"balancers"`) {
		t.Errorf("unexpected encoding: %s", data)
	}
}
