package topo_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"countnet/internal/bitonic"
	"countnet/internal/dtree"
	"countnet/internal/periodic"
	"countnet/internal/topo"
)

var update = flag.Bool("update", false, "rewrite testdata/graphs.golden from current output")

// goldenGraphs names every network the golden file pins: the bitonic,
// periodic and counting-tree constructions at each power-of-two width up
// to 32, two higher-arity trees, and the Pad(g, 3) of each.
func goldenGraphs(t testing.TB) []namedGraph {
	t.Helper()
	must := func(g *topo.Graph, err error) *topo.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	var base []namedGraph
	for _, w := range []int{2, 4, 8, 16, 32} {
		base = append(base,
			namedGraph{fmt.Sprintf("bitonic[%d]", w), must(bitonic.New(w))},
			namedGraph{fmt.Sprintf("periodic[%d]", w), must(periodic.New(w))},
			namedGraph{fmt.Sprintf("tree[%d]", w), must(dtree.New(w))})
	}
	base = append(base,
		namedGraph{"tree[27,arity 3]", must(dtree.NewArity(27, 3))},
		namedGraph{"tree[16,arity 4]", must(dtree.NewArity(16, 4))})
	all := base
	for _, ng := range base {
		all = append(all, namedGraph{"pad3(" + ng.name + ")", must(topo.Pad(ng.g, 3))})
	}
	return all
}

type namedGraph struct {
	name string
	g    *topo.Graph
}

// goldenDump renders each graph as its name, its Encode output with the
// indentation whitespace removed (one line per graph), the sources of
// every node by node id (input i as "xi", output port p of node n as
// "n.p"), and its LayerNodes, one line per layer.
func goldenDump(t testing.TB, graphs []namedGraph) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, ng := range graphs {
		data, err := topo.Encode(ng.g)
		if err != nil {
			t.Fatalf("%s: Encode: %v", ng.name, err)
		}
		var flat bytes.Buffer
		if err := json.Compact(&flat, data); err != nil {
			t.Fatalf("%s: compact: %v", ng.name, err)
		}
		fmt.Fprintf(&buf, "== %s\n%s\nsrc", ng.name, flat.Bytes())
		for id := range ng.g.NumNodes() {
			buf.WriteString(" ")
			for p := range ng.g.FanIn(topo.NodeID(id)) {
				if p > 0 {
					buf.WriteString(",")
				}
				if s := ng.g.InSrc(topo.NodeID(id), p); s.IsInput() {
					fmt.Fprintf(&buf, "x%d", s.Port)
				} else {
					fmt.Fprintf(&buf, "%d.%d", s.Node, s.Port)
				}
			}
		}
		buf.WriteString("\n")
		for l := 1; l <= ng.g.Depth()+1; l++ {
			fmt.Fprintf(&buf, "L%d %v\n", l, ng.g.LayerNodes(l))
		}
	}
	return buf.Bytes()
}

// TestGraphsGolden pins the node ids, wiring and layer lists of every
// network constructor: a change to the Builder that renumbers a node,
// reorders a wire or moves a node to another layer changes this output.
// Regenerate with `go test ./internal/topo -run GraphsGolden -update`
// only when such a change is intended.
func TestGraphsGolden(t *testing.T) {
	got := goldenDump(t, goldenGraphs(t))
	const path = "testdata/graphs.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("graphs drifted from %s at line %d:\n got: %.300s\nwant: %.300s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("graphs drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
