// Package topo models balancing networks as immutable directed acyclic
// graphs of balancers and output counters, in the style of Aspnes, Herlihy,
// and Shavit ("Counting Networks and Multi-Processor Coordination") and of
// the multi-input/multi-output balancing nodes of Aharonson and Attiya used
// by Lynch, Shavit, Shvartsman, and Touitou ("Counting Networks are
// Practically Linearizable", PODC 1996).
//
// A Graph has v ordered network inputs, a set of balancing nodes, and w
// ordered output counters. Tokens enter at an input, are routed through
// balancers (each of which preserves the step property on its ordered
// outputs), and finally reach an atomic counter: the a-th token to exit on
// output Y_i is assigned the value i + w*a.
//
// Graphs are built with a Builder, which makes ill-formed networks
// unrepresentable: a balancer's inputs are fixed at creation from existing
// outputs, so the result is acyclic and fully wired by construction. A
// node's id is its creation index, and every node's id exceeds the ids of
// the nodes feeding it, so id order is a topological order.
//
//countnet:deterministic
package topo

import "fmt"

// NodeID identifies a node (balancer or counter) within a Graph.
type NodeID int32

// InvalidNode is the zero-like sentinel for "no node".
const InvalidNode NodeID = -1

// Kind distinguishes the two node types of a balancing network.
type Kind uint8

// Node kinds.
const (
	// KindBalancer is a balancing node: e inputs, d ordered outputs, and
	// the step property 0 <= y_i - y_j <= 1 for i < j on its outputs.
	KindBalancer Kind = iota + 1
	// KindCounter is an atomic counter attached to one network output
	// port. It has a single input and no outputs.
	KindCounter
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindBalancer:
		return "balancer"
	case KindCounter:
		return "counter"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// PortRef names one input port of a node: tokens "waiting at" a PortRef are
// about to transition through that node.
type PortRef struct {
	Node NodeID
	Port int
}

// Src names the source feeding a wire: either a network input (Node ==
// InvalidNode, Port == input index) or an output port of a balancer.
type Src struct {
	Node NodeID // InvalidNode when the wire starts at a network input
	Port int    // output port index, or the network input index
}

// IsInput reports whether the source is a network input.
func (s Src) IsInput() bool { return s.Node == InvalidNode }

// node is the internal representation shared by balancers and counters.
// Its ports live in the Graph's flat srcs and dsts arrays, so a node holds
// no pointers and the node array is never scanned by the garbage collector.
type node struct {
	kind   Kind
	fanIn  int32
	fanOut int32
	in     int32 // srcs[in+p] = source feeding input port p
	out    int32 // dsts[out+p] = destination of output port p (balancers only)
	layer  int32 // 1-based balancer layer; counters sit at depth+1
	index  int32 // counters only: output port index Y_index
}

// Graph is an immutable balancing network.
//
// The zero Graph is not useful; construct one with a Builder or one of the
// network constructors (bitonic, periodic, dtree packages).
type Graph struct {
	nodes    []node
	srcs     []Src     // every node's input sources, in node order
	dsts     []PortRef // every balancer's output destinations, in node order
	inputs   []PortRef // inputs[i] = entry port of network input i
	counters []NodeID  // counters[i] = counter node for output Y_i
	depth    int       // number of links from an input node to a counter
	uniform  bool      // all input->output paths have equal length
	layers   [][]NodeID
}

// ins returns the sources feeding n's input ports.
func (g *Graph) ins(n *node) []Src { return g.srcs[n.in : n.in+n.fanIn] }

// outs returns the destinations of n's output ports.
func (g *Graph) outs(n *node) []PortRef { return g.dsts[n.out : n.out+n.fanOut] }

// NumNodes returns the total number of nodes (balancers plus counters).
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumBalancers returns the number of balancing nodes.
func (g *Graph) NumBalancers() int { return len(g.nodes) - len(g.counters) }

// InWidth returns v, the number of network input ports.
func (g *Graph) InWidth() int { return len(g.inputs) }

// OutWidth returns w, the number of output counters.
func (g *Graph) OutWidth() int { return len(g.counters) }

// Depth returns the number of links between an input node and an output
// counter (Definition 2.1 of the paper). For a non-uniform network it is the
// longest such path.
func (g *Graph) Depth() int { return g.depth }

// Uniform reports whether every node lies on an input-to-output path and all
// such paths have equal length (Definition 2.1).
func (g *Graph) Uniform() bool { return g.uniform }

// Input returns the entry port for network input i.
func (g *Graph) Input(i int) PortRef { return g.inputs[i] }

// KindOf returns the kind of node id.
func (g *Graph) KindOf(id NodeID) Kind { return g.nodes[id].kind }

// FanIn returns the number of input ports of node id.
func (g *Graph) FanIn(id NodeID) int { return int(g.nodes[id].fanIn) }

// FanOut returns the number of output ports of node id.
func (g *Graph) FanOut(id NodeID) int { return int(g.nodes[id].fanOut) }

// Layer returns the 1-based layer of node id. Balancers occupy layers
// 1..Depth(); counters report Depth()+1. For non-uniform graphs the layer is
// the length of the longest path from the inputs.
func (g *Graph) Layer(id NodeID) int { return int(g.nodes[id].layer) }

// CounterIndex returns the output index Y_i served by counter id, or -1 if
// id is not a counter.
func (g *Graph) CounterIndex(id NodeID) int {
	n := &g.nodes[id]
	if n.kind != KindCounter {
		return -1
	}
	return int(n.index)
}

// OutDest returns the destination input port of output port p of node id,
// which must be a balancer with p < FanOut(id).
func (g *Graph) OutDest(id NodeID, p int) PortRef { return g.dsts[int(g.nodes[id].out)+p] }

// InSrc returns the source feeding input port p < FanIn(id) of node id.
func (g *Graph) InSrc(id NodeID, p int) Src { return g.srcs[int(g.nodes[id].in)+p] }

// LayerNodes returns the node ids at 1-based layer l, in creation order.
// Layer Depth()+1 holds the counters.
func (g *Graph) LayerNodes(l int) []NodeID {
	if l < 1 || l > len(g.layers) {
		return nil
	}
	return g.layers[l-1]
}

// Balancers returns the ids of all balancing nodes in creation order.
func (g *Graph) Balancers() []NodeID {
	ids := make([]NodeID, 0, g.NumBalancers())
	for i := range g.nodes {
		if g.nodes[i].kind == KindBalancer {
			ids = append(ids, NodeID(i))
		}
	}
	return ids
}
