package topo

import (
	"fmt"
	"strings"
)

// Render returns a layer-by-layer ASCII description of the network: for
// each layer, its balancers with their input sources and output
// destinations, and finally the counters. It is meant for eyeballing small
// networks in a terminal (use Dot for anything wide).
func Render(g *Graph) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", Summary(g))
	for l := 1; l <= g.Depth(); l++ {
		fmt.Fprintf(&sb, "layer %d:\n", l)
		for _, id := range g.LayerNodes(l) {
			if g.KindOf(id) != KindBalancer {
				continue
			}
			ins := make([]string, g.FanIn(id))
			for p := range ins {
				s := g.InSrc(id, p)
				if s.IsInput() {
					ins[p] = fmt.Sprintf("x%d", s.Port)
				} else {
					ins[p] = fmt.Sprintf("b%d.%d", s.Node, s.Port)
				}
			}
			outs := make([]string, g.FanOut(id))
			for p := range outs {
				d := g.OutDest(id, p)
				if g.KindOf(d.Node) == KindCounter {
					outs[p] = fmt.Sprintf("Y%d", g.CounterIndex(d.Node))
				} else {
					outs[p] = fmt.Sprintf("b%d.%d", d.Node, d.Port)
				}
			}
			fmt.Fprintf(&sb, "  b%-4d %s -> %s\n", id, strings.Join(ins, ","), strings.Join(outs, ","))
		}
	}
	fmt.Fprintf(&sb, "counters: Y0..Y%d\n", g.OutWidth()-1)
	return sb.String()
}

// maxVectors caps how many input vectors Certify checks one by one.
const maxVectors = 100_000

// Certify checks every input vector of up to m tokens, for the largest m
// whose C(m+v, v) vectors over v inputs number at most maxVectors, then
// runs VerifyCounting: the sequential check and `trials` random vectors of
// up to 4w tokens. It returns a description of what was checked along with
// any failure.
func Certify(g *Graph, trials int, seed int64) (string, error) {
	v := int64(g.InWidth())
	var m int64
	for n := v + 1; n <= maxVectors; n = n * (m + 1 + v) / (m + 1) { // n = C(m+1+v, v)
		m++
	}
	checked, err := CheckInputs(g, m)
	if err != nil {
		return "", err
	}
	if err := VerifyCounting(g, 4*g.OutWidth(), trials, seed); err != nil {
		return "", err
	}
	return fmt.Sprintf("every input vector of up to %d tokens (%d vectors) + %d randomized trials", m, checked, trials), nil
}
