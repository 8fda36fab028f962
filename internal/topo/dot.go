package topo

import (
	"fmt"
	"strings"
)

// Dot renders the network in Graphviz dot format, one rank per layer, for
// inspection with the netinfo tool.
func Dot(g *Graph, name string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n", name)
	for i := range g.inputs {
		fmt.Fprintf(&sb, "  x%d [shape=plaintext, label=\"x%d\"];\n", i, i)
	}
	for id := range g.nodes {
		n := &g.nodes[id]
		if i := g.CounterIndex(NodeID(id)); i >= 0 {
			fmt.Fprintf(&sb, "  n%d [shape=ellipse, label=\"Y%d\"];\n", id, i)
			continue
		}
		label := fmt.Sprintf("b%d\\n%dx%d L%d", id, n.fanIn, n.fanOut, n.layer)
		fmt.Fprintf(&sb, "  n%d [label=\"%s\"];\n", id, label)
	}
	for i, p := range g.inputs {
		fmt.Fprintf(&sb, "  x%d -> n%d [label=\"p%d\"];\n", i, p.Node, p.Port)
	}
	for id := range g.nodes {
		n := &g.nodes[id]
		for p, dst := range g.outs(n) {
			fmt.Fprintf(&sb, "  n%d -> n%d [label=\"y%d>p%d\"];\n", id, dst.Node, p, dst.Port)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Summary returns a one-paragraph human-readable description of the network.
func Summary(g *Graph) string {
	uniform := "non-uniform"
	if g.Uniform() {
		uniform = "uniform"
	}
	return fmt.Sprintf("%d inputs, %d outputs, %d balancers, depth %d, %s",
		g.InWidth(), g.OutWidth(), g.NumBalancers(), g.Depth(), uniform)
}
