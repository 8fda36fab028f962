package topo

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// Out is an open wire end produced by the Builder: either a network input
// that no balancer consumes yet, or an unconsumed balancer output port.
// Every Out must be consumed exactly once, by a balancer or by Terminate.
// It names its Builder by serial, not by pointer, so slices of Outs hold
// no pointers.
type Out struct {
	node    NodeID // InvalidNode for a network input
	port    int32  // output port, or network input index
	builder uint64 // serial of the Builder that made it; 0 in the zero Out
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
	g      Graph  // the network under construction; Build publishes it
	serial uint64 // nonzero, unique to this Builder; stamped on its Outs
	err    error
}

// serials hands each Builder its serial.
var serials atomic.Uint64

// errBuilt latches a Builder once Build has published its Graph.
var errBuilt = errors.New("topo: Builder already built")

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	// g.uniform stays true until a node's sources sit on different layers.
	return &Builder{g: Graph{uniform: true}, serial: serials.Add(1)}
}

// Reserve makes room for nodes more nodes, counters included, with
// inPorts input ports and outPorts output ports between them. A
// constructor that knows its network's size reserves it up front, so the
// Builder's arrays never regrow.
func (b *Builder) Reserve(nodes, inPorts, outPorts int) {
	b.g.nodes = slices.Grow(b.g.nodes, nodes)
	b.g.srcs = slices.Grow(b.g.srcs, inPorts)
	b.g.dsts = slices.Grow(b.g.dsts, outPorts)
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// Inputs declares v ordered network inputs and returns their wire ends.
// It may be called multiple times; indices continue from previous calls.
func (b *Builder) Inputs(v int) []Out {
	outs := make([]Out, v)
	if b.err != nil {
		return outs
	}
	b.g.inputs = slices.Grow(b.g.inputs, v)
	for i := range outs {
		outs[i] = Out{node: InvalidNode, port: int32(len(b.g.inputs)), builder: b.serial}
		b.g.inputs = append(b.g.inputs, PortRef{Node: InvalidNode}) // patched on consumption
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
	if o.builder == 0 {
		b.fail("topo: zero Out consumed at node %d port %d", dst.Node, dst.Port)
		return Src{Node: InvalidNode}
	}
	if o.builder != b.serial {
		b.fail("topo: Out from a different Builder consumed at node %d", dst.Node)
		return Src{Node: InvalidNode}
	}
	s := Src{Node: o.node, Port: o.port}
	dsts := b.g.inputs
	if !s.IsInput() {
		dsts = b.g.outs(&b.g.nodes[s.Node])
	}
	if dsts[s.Port].Node != InvalidNode {
		b.fail("topo: wire %+v consumed twice", s)
		return s
	}
	dsts[s.Port] = dst
	return s
}

// add appends a node fed by ins, with fanOut unwired output ports, and
// returns its id. Its sources are already in place, so its layer, one past
// the deepest of theirs, is final when it is appended.
func (b *Builder) add(ins []Out, fanOut int) NodeID {
	g := &b.g
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, node{})
	n := &g.nodes[id]
	n.fanIn, n.fanOut = int32(len(ins)), int32(fanOut)
	n.in, n.out = int32(len(g.srcs)), int32(len(g.dsts))
	for range fanOut {
		g.dsts = append(g.dsts, PortRef{Node: InvalidNode})
	}
	lo, hi := int32(math.MaxInt32), int32(0)
	for p, o := range ins {
		s := b.consume(o, PortRef{Node: id, Port: int32(p)})
		g.srcs = append(g.srcs, s)
		var l int32 // a network input sits at layer 0
		if !s.IsInput() {
			l = g.nodes[s.Node].layer
		}
		lo, hi = min(lo, l), max(hi, l)
	}
	g.uniform = g.uniform && lo == hi
	n.layer = hi + 1
	return id
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
	return b.add(ins, fanOut)
}

// out returns output port p of balancer id, or the zero Out for InvalidNode.
func (b *Builder) out(id NodeID, p int) Out {
	if id == InvalidNode {
		return Out{}
	}
	return Out{node: id, port: int32(p), builder: b.serial}
}

// BalancerN creates a balancing node consuming the given wire ends as its
// ordered inputs, with len(outs) ordered outputs, and stores the new open
// output wires in outs.
func (b *Builder) BalancerN(ins, outs []Out) {
	id := b.balancer(ins, len(outs))
	for p := range outs {
		outs[p] = b.out(id, p)
	}
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
// becomes network output Y_i. It may be called once. A balancer added
// after it leaves outputs nothing can consume, which Build rejects, so the
// counters are a built Graph's last nodes.
func (b *Builder) Terminate(outs []Out) {
	if b.err != nil {
		return
	}
	if b.g.w != 0 {
		b.fail("topo: Terminate called twice")
		return
	}
	if len(outs) == 0 {
		b.fail("topo: Terminate with no outputs")
		return
	}
	for i := range outs {
		b.add(outs[i:i+1], 0)
	}
	b.g.w = len(outs)
}

// Build validates the network and returns the immutable Graph. The network
// is uniform in the sense of Definition 2.1 (every node lies on an
// input-to-output path, which the Builder guarantees, and all such paths
// have equal length) exactly when every node's sources share one layer and
// all counters land on the same layer; its depth is one less than the
// deepest counter's layer.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	g := &b.g
	if len(g.inputs) == 0 {
		return nil, errors.New("topo: network has no inputs")
	}
	if g.w == 0 {
		return nil, errors.New("topo: network has no output counters (missing Terminate)")
	}
	for i, p := range g.inputs {
		if p.Node == InvalidNode {
			return nil, fmt.Errorf("topo: network input %d is not consumed by any node", i)
		}
	}
	for id := range g.nodes {
		for p, dst := range g.outs(&g.nodes[id]) {
			if dst.Node == InvalidNode {
				return nil, fmt.Errorf("topo: balancer %d output %d is dangling", id, p)
			}
		}
	}
	lo, hi := int32(math.MaxInt32), int32(0)
	for _, c := range g.nodes[g.NumBalancers():] {
		lo, hi = min(lo, c.layer), max(hi, c.layer)
	}
	g.depth = int(hi) - 1
	g.uniform = g.uniform && lo == hi
	// Latch the Builder so further use cannot mutate the published network.
	b.err = errBuilt
	return g, nil
}
