package topo

import (
	"encoding/json"
	"fmt"
)

// wireJSON is one consumed wire end in the serialized form: either a
// network input (Input >= 0) or output port Port of balancer Node.
type wireJSON struct {
	Input int   `json:"input"`          // network input index, or -1
	Node  int32 `json:"node,omitempty"` // balancer index into nodes
	Port  int   `json:"port,omitempty"`
}

// balancerJSON is one balancer: its ordered input wire sources and fan-out.
type balancerJSON struct {
	In     []wireJSON `json:"in"`
	FanOut int        `json:"fanOut"`
}

// graphJSON is the serialized network: balancers in topological (creation)
// order plus the wires feeding each output counter, in output order.
type graphJSON struct {
	Inputs    int            `json:"inputs"`
	Balancers []balancerJSON `json:"balancers"`
	Counters  []wireJSON     `json:"counters"`
}

// Encode serializes g to JSON. The encoding records, for every balancer
// and counter, where each of its inputs comes from; Decode rebuilds the
// network through a Builder, so a decoded graph is re-validated from
// scratch.
func Encode(g *Graph) ([]byte, error) {
	if g == nil {
		return nil, fmt.Errorf("topo: encode nil graph")
	}
	order := g.breadthOrder()
	pos := make([]int32, len(g.nodes)) // pos[id] = balancer id's index in order
	src := func(s Src) wireJSON {
		if s.IsInput() {
			return wireJSON{Input: s.Port}
		}
		return wireJSON{Input: -1, Node: pos[s.Node], Port: s.Port}
	}
	out := graphJSON{Inputs: g.InWidth(), Balancers: make([]balancerJSON, len(order))}
	for i, id := range order {
		n := &g.nodes[id]
		pos[id] = int32(i) // sources come earlier in order, so theirs are set
		bj := balancerJSON{FanOut: int(n.fanOut), In: make([]wireJSON, n.fanIn)}
		for p, s := range g.ins(n) {
			bj.In[p] = src(s)
		}
		out.Balancers[i] = bj
	}
	out.Counters = make([]wireJSON, g.OutWidth())
	for i, c := range g.counters {
		out.Counters[i] = src(g.InSrc(c, 0))
	}
	return json.MarshalIndent(out, "", " ")
}

// Decode rebuilds a Graph from Encode's output, re-running all Builder
// validation. Untrusted input yields an error, never a malformed Graph.
//
//countnet:allow apivet -- FuzzDecode's entry to the Builder's checks; its fuzzing found the makeslice panic fixed in E41
func Decode(data []byte) (*Graph, error) {
	var gj graphJSON
	if err := json.Unmarshal(data, &gj); err != nil {
		return nil, fmt.Errorf("topo: decode: %w", err)
	}
	// Every input and every output port must be consumed by a wire listed
	// in data, so no count can exceed its length.
	if gj.Inputs < 1 || gj.Inputs > len(data) {
		return nil, fmt.Errorf("topo: decode: %d inputs", gj.Inputs)
	}
	b := NewBuilder()
	ins := b.Inputs(gj.Inputs)
	outs := make([][]Out, len(gj.Balancers))
	resolve := func(wj wireJSON) (Out, error) {
		if wj.Input >= 0 {
			if wj.Input >= len(ins) {
				return Out{}, fmt.Errorf("topo: decode: input %d out of range", wj.Input)
			}
			return ins[wj.Input], nil
		}
		if wj.Node < 0 || int(wj.Node) >= len(outs) || outs[wj.Node] == nil {
			return Out{}, fmt.Errorf("topo: decode: node %d not yet defined (non-topological order?)", wj.Node)
		}
		if wj.Port < 0 || wj.Port >= len(outs[wj.Node]) {
			return Out{}, fmt.Errorf("topo: decode: port %d out of range for node %d", wj.Port, wj.Node)
		}
		return outs[wj.Node][wj.Port], nil
	}
	for i, bj := range gj.Balancers {
		insB := make([]Out, len(bj.In))
		for p, wj := range bj.In {
			o, err := resolve(wj)
			if err != nil {
				return nil, err
			}
			insB[p] = o
		}
		if bj.FanOut > len(data) {
			return nil, fmt.Errorf("topo: decode: balancer %d has fanOut %d", i, bj.FanOut)
		}
		outs[i] = make([]Out, max(bj.FanOut, 0))
		b.BalancerN(insB, outs[i])
	}
	term := make([]Out, len(gj.Counters))
	for i, wj := range gj.Counters {
		o, err := resolve(wj)
		if err != nil {
			return nil, err
		}
		term[i] = o
	}
	b.Terminate(term)
	return b.Build()
}
