package topo

import (
	"encoding/json"
	"fmt"
	"slices"
	"testing"
)

// checkCounters recomputes which nodes are counters from the node fan-outs
// alone, a counter being the only node with fan-out 0, and checks KindOf,
// CounterIndex, NumBalancers, OutWidth and Balancers against it: the
// counters are the last OutWidth() ids, each with one input, and counter
// i's index is its place among them. It then checks that counter i is fed
// by the wire Encode lists as counters[i], in g and in Decode's rebuild of
// the encoding. Decode numbers balancer k of the encoding as node k and
// attaches the counters in the listed order, so the rebuild's check does
// not take the counters' order from the graph it checks.
func checkCounters(g *Graph) error {
	if err := checkKinds(g); err != nil {
		return err
	}
	data, err := Encode(g)
	if err != nil {
		return err
	}
	var gj graphJSON
	if err := json.Unmarshal(data, &gj); err != nil {
		return err
	}
	g2, err := Decode(data)
	if err != nil {
		return fmt.Errorf("decode of the encoding: %v", err)
	}
	if err := checkKinds(g2); err != nil {
		return fmt.Errorf("decode of the encoding: %v", err)
	}
	if len(gj.Counters) != g.OutWidth() || g2.OutWidth() != g.OutWidth() {
		return fmt.Errorf("encoding lists %d counters, decoding has %d, want %d", len(gj.Counters), g2.OutWidth(), g.OutWidth())
	}
	order := g.breadthOrder() // Encode's balancer k is g's node order[k]
	for i, wj := range gj.Counters {
		want := Src{Node: InvalidNode, Port: int32(wj.Input)}
		want2 := want
		if wj.Input < 0 {
			want = Src{Node: order[wj.Node], Port: int32(wj.Port)}
			want2 = Src{Node: NodeID(wj.Node), Port: int32(wj.Port)}
		}
		if got := g.InSrc(NodeID(g.NumBalancers()+i), 0); got != want {
			return fmt.Errorf("counter Y%d fed by %+v, encoding lists %+v", i, got, want)
		}
		if got := g2.InSrc(NodeID(g2.NumBalancers()+i), 0); got != want2 {
			return fmt.Errorf("decoding's counter Y%d fed by %+v, encoding lists %+v", i, got, want2)
		}
	}
	return nil
}

// checkKinds is checkCounters' recomputation from the fan-outs.
func checkKinds(g *Graph) error {
	nb := 0
	for id := range NodeID(g.NumNodes()) {
		if g.FanOut(id) > 0 {
			nb++
		}
	}
	for id := range NodeID(g.NumNodes()) {
		kind, index := KindBalancer, -1
		if g.FanOut(id) == 0 {
			kind, index = KindCounter, int(id)-nb
			if index < 0 {
				return fmt.Errorf("counter %d precedes a balancer", id)
			}
			if g.FanIn(id) != 1 {
				return fmt.Errorf("counter %d has %d inputs", id, g.FanIn(id))
			}
		}
		if g.KindOf(id) != kind || g.CounterIndex(id) != index {
			return fmt.Errorf("node %d: KindOf, CounterIndex = %v, %d, want %v, %d", id, g.KindOf(id), g.CounterIndex(id), kind, index)
		}
	}
	want := make([]NodeID, nb)
	for i := range want {
		want[i] = NodeID(i)
	}
	if g.NumBalancers() != nb || g.OutWidth() != g.NumNodes()-nb || !slices.Equal(g.Balancers(), want) {
		return fmt.Errorf("NumBalancers, OutWidth, Balancers = %d, %d, %v, want %d, %d, %v",
			g.NumBalancers(), g.OutWidth(), g.Balancers(), nb, g.NumNodes()-nb, want)
	}
	return nil
}

// TestCountersBuilderShapes checks that the counters are the last nodes,
// in output order, on the Builder tests' hand-wired shapes.
func TestCountersBuilderShapes(t *testing.T) {
	for name, build := range builderShapes() {
		if err := checkCounters(build(t)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
