package topo

import (
	"errors"
	"fmt"
	"slices"
)

// Out is an open wire end produced by the Builder: either a network input
// that no balancer consumes yet, or an unconsumed balancer output port.
// Every Out must be consumed exactly once, by a balancer or by Terminate.
type Out struct {
	node NodeID // InvalidNode for a network input
	port int    // output port, or network input index
	b    *Builder
}

// Builder incrementally constructs a Graph. Usage:
//
//	b := topo.NewBuilder()
//	in := b.Inputs(2)
//	o0, o1 := b.Balancer2(in[0], in[1])
//	b.Terminate([]topo.Out{o0, o1})
//	g, err := b.Build()
//
// Errors (double consumption, foreign Outs, dangling wires) are latched and
// reported by Build, so construction code can stay assignment-shaped.
// A node is appended only after the Outs it consumes exist, so every node's
// id exceeds its sources' ids: id order is topological, with no sort.
type Builder struct {
	nodes    []node
	inputs   []PortRef
	counters []NodeID
	srcs     []Src     // unused tail of the backing array for nodes' in ports
	dsts     []PortRef // unused tail of the backing array for nodes' out ports
	err      error
}

// errBuilt latches a Builder once Build has handed its nodes to a Graph.
var errBuilt = errors.New("topo: Builder already built")

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// Inputs declares v ordered network inputs and returns their wire ends.
// It may be called multiple times; indices continue from previous calls.
func (b *Builder) Inputs(v int) []Out {
	if b.err != nil {
		return make([]Out, v)
	}
	outs := make([]Out, v)
	b.inputs = slices.Grow(b.inputs, v)
	for i := range outs {
		outs[i] = Out{node: InvalidNode, port: len(b.inputs), b: b}
		b.inputs = append(b.inputs, PortRef{Node: InvalidNode}) // patched on consumption
	}
	return outs
}

// consume marks an Out as used and returns its Src, recording the
// destination so network inputs learn their entry port. A wire end is
// consumed once its destination slot holds a node.
func (b *Builder) consume(o Out, dst PortRef) Src {
	if b.err != nil {
		return Src{Node: InvalidNode}
	}
	if o.b == nil {
		b.fail("topo: zero Out consumed at node %d port %d", dst.Node, dst.Port)
		return Src{Node: InvalidNode}
	}
	if o.b != b {
		b.fail("topo: Out from a different Builder consumed at node %d", dst.Node)
		return Src{Node: InvalidNode}
	}
	s := Src{Node: o.node, Port: o.port}
	dsts := b.inputs
	if !s.IsInput() {
		dsts = b.nodes[s.Node].out
	}
	if dsts[s.Port].Node != InvalidNode {
		b.fail("topo: wire %+v consumed twice", s)
		return s
	}
	dsts[s.Port] = dst
	return s
}

// carve cuts k ports from the backing array *buf, starting a fresh one when
// it is full. The cap of k keeps a node from growing into its neighbour's.
func carve[T any](buf *[]T, k int) []T {
	if cap(*buf)-len(*buf) < k {
		*buf = make([]T, 0, max(2*cap(*buf), k, 64))
	}
	i := len(*buf)
	*buf = (*buf)[:i+k]
	return (*buf)[i : i+k : i+k]
}

// balancer appends a balancing node and returns its id, or InvalidNode when
// the Builder has failed or the shape is invalid.
func (b *Builder) balancer(ins []Out, fanOut int) NodeID {
	if b.err != nil {
		return InvalidNode
	}
	if len(ins) < 1 {
		b.fail("topo: balancer with no inputs")
		return InvalidNode
	}
	if fanOut < 1 {
		b.fail("topo: balancer with fanOut %d", fanOut)
		return InvalidNode
	}
	id := NodeID(len(b.nodes))
	in, out := carve(&b.srcs, len(ins)), carve(&b.dsts, fanOut)
	for p := range out {
		out[p] = PortRef{Node: InvalidNode}
	}
	b.nodes = append(b.nodes, node{
		kind:   KindBalancer,
		fanIn:  len(ins),
		fanOut: fanOut,
		in:     in,
		out:    out,
	})
	for p, o := range ins {
		in[p] = b.consume(o, PortRef{Node: id, Port: p})
	}
	return id
}

// out returns output port p of balancer id, or the zero Out for InvalidNode.
func (b *Builder) out(id NodeID, p int) Out {
	if id == InvalidNode {
		return Out{}
	}
	return Out{node: id, port: p, b: b}
}

// BalancerN creates a balancing node consuming the given wire ends as its
// ordered inputs, with fanOut ordered outputs, and returns the new open
// output wires.
func (b *Builder) BalancerN(ins []Out, fanOut int) []Out {
	if b.err != nil {
		return make([]Out, max(fanOut, 0))
	}
	id := b.balancer(ins, fanOut)
	if id == InvalidNode {
		return nil
	}
	outs := make([]Out, fanOut)
	for p := range outs {
		outs[p] = b.out(id, p)
	}
	return outs
}

// Balancer2 creates the ubiquitous 2-input 2-output balancer.
func (b *Builder) Balancer2(in0, in1 Out) (Out, Out) {
	id := b.balancer([]Out{in0, in1}, 2)
	return b.out(id, 0), b.out(id, 1)
}

// Balancer12 creates a 1-input 2-output balancer (a counting-tree node).
func (b *Builder) Balancer12(in Out) (Out, Out) {
	id := b.balancer([]Out{in}, 2)
	return b.out(id, 0), b.out(id, 1)
}

// Balancer11 creates a 1-input 1-output pass-through balancer, the padding
// node of Corollary 3.12.
func (b *Builder) Balancer11(in Out) Out {
	return b.out(b.balancer([]Out{in}, 1), 0)
}

// Terminate attaches an atomic counter to each wire end, in order: outs[i]
// becomes network output Y_i. It may be called once.
func (b *Builder) Terminate(outs []Out) {
	if b.err != nil {
		return
	}
	if len(b.counters) != 0 {
		b.fail("topo: Terminate called twice")
		return
	}
	if len(outs) == 0 {
		b.fail("topo: Terminate with no outputs")
		return
	}
	b.counters = make([]NodeID, len(outs))
	for i, o := range outs {
		id := NodeID(len(b.nodes))
		in := carve(&b.srcs, 1)
		b.nodes = append(b.nodes, node{
			kind:  KindCounter,
			fanIn: 1,
			in:    in,
			index: i,
		})
		in[0] = b.consume(o, PortRef{Node: id, Port: 0})
		b.counters[i] = id
	}
}

// Build validates the network and returns the immutable Graph.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.inputs) == 0 {
		return nil, errors.New("topo: network has no inputs")
	}
	if len(b.counters) == 0 {
		return nil, errors.New("topo: network has no output counters (missing Terminate)")
	}
	for i, p := range b.inputs {
		if p.Node == InvalidNode {
			return nil, fmt.Errorf("topo: network input %d is not consumed by any node", i)
		}
	}
	for id := range b.nodes {
		n := &b.nodes[id]
		if n.kind != KindBalancer {
			continue
		}
		for p, dst := range n.out {
			if dst.Node == InvalidNode {
				return nil, fmt.Errorf("topo: balancer %d output %d is dangling", id, p)
			}
		}
	}
	g := &Graph{
		nodes:    b.nodes,
		inputs:   b.inputs,
		counters: b.counters,
	}
	g.computeLayers()
	// The Graph now owns the node slices; latch the Builder so further use
	// cannot mutate the published network.
	b.err = errBuilt
	return g, nil
}
