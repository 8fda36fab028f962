package topo

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the network decoder: it must never
// panic, and anything it accepts must be a well-formed graph whose encoding
// is a fixed point: re-encoding its decoding gives the same bytes, and the
// decoding has the same layer lists once each node is renamed to its place
// in the encoding. The layers, depth and uniformity set during the build
// must match checkLayers' recomputation from the node sources, and the
// counters must be the last nodes, in the order the encoding lists them
// (checkCounters). And it must be confluent: a seeded interleaving of 1-3
// tokens at each input leaves its counters with the tallies Tallies
// computes from the input counts alone, also on the fan-outs above 2 and
// the balancers with more inputs than outputs that no constructor makes.
func FuzzDecode(f *testing.F) {
	// The non-uniform network's seed has sources on different layers.
	for _, g := range []*Graph{width2(f), nonUniform(f)} {
		data, err := Encode(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"inputs":1,"balancers":[],"counters":[{"input":0}]}`))
	f.Add([]byte(`{"inputs":-1}`))
	f.Add([]byte(`{`))
	// Balancers listed in an order that is topological but not the
	// encoding's breadth-first order, so the decoding renumbers them.
	f.Add([]byte(`{"inputs":4,"balancers":[{"in":[{"input":0},{"input":1}],"fanOut":2},` +
		`{"in":[{"input":-1},{"input":-1,"port":1}],"fanOut":2},` +
		`{"in":[{"input":2},{"input":3}],"fanOut":2}],` +
		`"counters":[{"input":-1,"node":1},{"input":-1,"node":1,"port":1},{"input":-1,"node":2},{"input":-1,"node":2,"port":1}]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		g, err := Decode(raw)
		if err != nil {
			return
		}
		if g.InWidth() < 1 || g.OutWidth() < 1 {
			t.Fatalf("decoded degenerate graph: %s", Summary(g))
		}
		if err := checkLayers(g); err != nil {
			t.Fatalf("decoded graph: %v", err)
		}
		if err := checkCounters(g); err != nil {
			t.Fatalf("decoded graph: %v", err)
		}
		per := make([]int64, g.InWidth())
		for i := range per {
			per[i] = int64(1 + (i+g.NumNodes())%3)
		}
		want, err := Tallies(g, per)
		if err != nil {
			t.Fatal(err)
		}
		if got := interleavedTallies(t, g, per, rand.New(rand.NewSource(int64(len(raw))))); !slices.Equal(got, want) {
			t.Fatalf("inputs %v: an interleaving reaches outputs %v, Tallies gives %v", per, got, want)
		}
		re, err := Encode(g)
		if err != nil {
			t.Fatalf("re-encode of accepted graph failed: %v", err)
		}
		g2, err := Decode(re)
		if err != nil {
			t.Fatalf("round trip of accepted graph failed: %v", err)
		}
		re2, err := Encode(g2)
		if err != nil {
			t.Fatalf("encode of round-tripped graph failed: %v", err)
		}
		if !bytes.Equal(re2, re) {
			t.Fatalf("encoding is not a fixed point:\n%s\nvs\n%s", re, re2)
		}
		// Encode lists g's balancers in breadthOrder and its counters in
		// output order, and Decode numbers g2's nodes in that order.
		rename := make([]NodeID, g.NumNodes())
		for k, id := range g.breadthOrder() {
			rename[id] = NodeID(k)
		}
		for i := range g.OutWidth() {
			rename[g.counter(i)] = g2.counter(i)
		}
		if g2.Depth() != g.Depth() || g2.Uniform() != g.Uniform() {
			t.Fatalf("round trip changed shape: %s vs %s", Summary(g), Summary(g2))
		}
		for l := 1; l <= g.Depth()+1; l++ {
			var want []NodeID
			for _, id := range g.LayerNodes(l) {
				want = append(want, rename[id])
			}
			slices.Sort(want)
			if got := g2.LayerNodes(l); !slices.Equal(got, want) {
				t.Fatalf("layer %d: round trip has %v, want %v", l, got, want)
			}
		}
	})
}

// FuzzStepCounts checks the closed form against its defining properties.
func FuzzStepCounts(f *testing.F) {
	f.Add(uint16(7), uint8(3))
	f.Fuzz(func(t *testing.T, mRaw uint16, wRaw uint8) {
		m := int64(mRaw)
		w := int(wRaw)%128 + 1
		counts := StepCounts(m, w)
		var sum int64
		for _, c := range counts {
			sum += c
		}
		if sum != m {
			t.Fatalf("sum %d != %d", sum, m)
		}
		if !StepPropertyHolds(counts) {
			t.Fatalf("step property fails: %v", counts)
		}
	})
}
