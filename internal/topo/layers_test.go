package topo

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// checkLayers recomputes, from InSrc alone, every node's longest and
// shortest path from a network input, and checks Layer, Depth, Uniform and
// LayerNodes against them: a node's layer is its longest path, the depth
// is one less than the deepest counter's, and the network is uniform when
// every counter's paths, shortest and longest, have one common length. It
// follows sources by recursion, so it does not rely on ids being a
// topological order.
func checkLayers(g *Graph) error {
	long := make([]int, g.NumNodes()) // 0 until the node is visited
	short := make([]int, g.NumNodes())
	var visit func(id NodeID)
	visit = func(id NodeID) {
		if long[id] != 0 {
			return
		}
		lo, hi := math.MaxInt, 0
		for p := range g.FanIn(id) {
			l, s := 0, 0 // a network input is a path of length 0
			if src := g.InSrc(id, p); !src.IsInput() {
				visit(src.Node)
				l, s = long[src.Node], short[src.Node]
			}
			lo, hi = min(lo, s), max(hi, l)
		}
		long[id], short[id] = hi+1, lo+1
	}
	depth, uniform, counterLayer := 0, true, 0
	for id := range NodeID(g.NumNodes()) {
		visit(id)
		if g.KindOf(id) != KindCounter {
			continue
		}
		if short[id] != long[id] || (counterLayer != 0 && long[id] != counterLayer) {
			uniform = false
		}
		counterLayer = long[id]
		depth = max(depth, long[id]-1)
	}
	for id := range NodeID(g.NumNodes()) {
		if got := g.Layer(id); got != long[id] {
			return fmt.Errorf("node %d: Layer = %d, want %d", id, got, long[id])
		}
	}
	if g.Depth() != depth || g.Uniform() != uniform {
		return fmt.Errorf("Depth, Uniform = %d, %v, want %d, %v", g.Depth(), g.Uniform(), depth, uniform)
	}
	for l := 0; l <= depth+2; l++ {
		var want []NodeID
		for id := range NodeID(g.NumNodes()) {
			if long[id] == l {
				want = append(want, id)
			}
		}
		if got := g.LayerNodes(l); !slices.Equal(got, want) {
			return fmt.Errorf("LayerNodes(%d) = %v, want %v", l, got, want)
		}
	}
	return nil
}

// TestLayersBuilderShapes checks the layers set during the build on the
// Builder tests' hand-wired shapes.
func TestLayersBuilderShapes(t *testing.T) {
	for name, build := range builderShapes() {
		if err := checkLayers(build(t)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
