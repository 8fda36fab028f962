package topo

import (
	"fmt"
	"math/rand"
	"slices"
)

// StepPropertyHolds reports whether the tallies satisfy the step property:
// 0 <= counts[i] - counts[j] <= 1 for all i < j.
func StepPropertyHolds(counts []int64) bool {
	for i := 1; i < len(counts); i++ {
		d := counts[i-1] - counts[i]
		if d < 0 || d > 1 {
			return false
		}
	}
	return true
}

// StepCounts returns the unique step-property tallies a_0..a_{w-1} summing
// to m: a_i = ceil((m-i)/w) for m >= 0.
func StepCounts(m int64, w int) []int64 {
	out := make([]int64, w)
	for i := range out {
		q := m - int64(i)
		if q <= 0 {
			continue
		}
		out[i] = (q + int64(w) - 1) / int64(w)
	}
	return out
}

// Tallies returns the output tallies Y_0..Y_{w-1} of g at quiescence after
// perInput[i] tokens entered network input i. A balancer sends its k-th
// token out of output k mod fan-out, so of the n tokens that enter a
// balancer with f outputs, each output gets n/f and the first n mod f one
// more, in whatever order the tokens arrived (Aspnes, Herlihy and Shavit).
// A balancing network's quiescent tallies thus depend on the per-input
// token counts alone, and one pass over the balancers in id order, which
// is topological, pushes those counts through to the counters.
func Tallies(g *Graph, perInput []int64) ([]int64, error) {
	if len(perInput) != g.InWidth() {
		return nil, fmt.Errorf("topo: %d token counts for %d inputs", len(perInput), g.InWidth())
	}
	for _, c := range perInput {
		if c < 0 {
			return nil, fmt.Errorf("topo: negative token count %d", c)
		}
	}
	return g.push(perInput, make([]int64, g.NumNodes())), nil
}

// push returns the output tallies for perInput, using entered, one word per
// node, to hold how many tokens enter each node.
func (g *Graph) push(perInput, entered []int64) []int64 {
	clear(entered)
	for i, c := range perInput {
		entered[g.inputs[i].Node] += c
	}
	for id := range g.NumBalancers() {
		n := &g.nodes[id]
		q, r := entered[id]/int64(n.fanOut), entered[id]%int64(n.fanOut)
		for p, d := range g.outs(n) {
			entered[d.Node] += q
			if int64(p) < r {
				entered[d.Node]++
			}
		}
	}
	return entered[g.NumBalancers():]
}

// CheckInputs checks the quiescent step property of g for every input
// vector of at most maxTotal tokens, smallest totals first: the Tallies of
// each must be the StepCounts of its total. It returns how many vectors it
// checked, C(maxTotal+v, v) for v inputs when all pass, and an error naming
// the first vector that fails.
func CheckInputs(g *Graph, maxTotal int64) (int64, error) {
	per := make([]int64, g.InWidth())
	entered := make([]int64, g.NumNodes())
	var checked int64
	var want []int64
	// fill spreads rest tokens over inputs i..v-1 in every way, in
	// lexicographic order, and checks each vector.
	var fill func(i int, rest int64) error
	fill = func(i int, rest int64) error {
		if i == len(per)-1 {
			per[i] = rest
			checked++
			return checkStep(per, g.push(per, entered), want)
		}
		for c := int64(0); c <= rest; c++ {
			per[i] = c
			if err := fill(i+1, rest-c); err != nil {
				return err
			}
		}
		return nil
	}
	for total := int64(0); total <= maxTotal; total++ {
		want = StepCounts(total, g.w)
		if err := fill(0, total); err != nil {
			return checked, err
		}
	}
	return checked, nil
}

// checkStep checks that the tokens of perInput reached the outputs in the
// step counts want of their total.
func checkStep(perInput, outputs, want []int64) error {
	if !slices.Equal(outputs, want) {
		return fmt.Errorf("topo: inputs %v reach outputs %v, want %v", perInput, outputs, want)
	}
	return nil
}

// VerifyCounting performs `trials` quiescent step-property checks of random
// input vectors of up to maxTokens tokens each, plus one deterministic
// sequential check. It returns the first violation found.
func VerifyCounting(g *Graph, maxTokens int, trials int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	if err := verifySequential(g, min(maxTokens, 4*g.OutWidth())); err != nil {
		return err
	}
	for t := 0; t < trials; t++ {
		per := make([]int64, g.InWidth())
		n := 1 + rng.Intn(maxTokens)
		for k := 0; k < n; k++ {
			per[rng.Intn(len(per))]++
		}
		got, err := Tallies(g, per)
		if err != nil {
			return err
		}
		if err := checkStep(per, got, StepCounts(int64(n), g.w)); err != nil {
			return fmt.Errorf("trial %d: %w", t, err)
		}
	}
	return nil
}

// verifySequential checks that m tokens traversing one after another receive
// exactly the values 0..m-1 in order, regardless of which inputs they use.
func verifySequential(g *Graph, m int) error {
	q := NewSequential(g)
	for k := 0; k < m; k++ {
		v, err := q.Traverse(k % g.InWidth())
		if err != nil {
			return err
		}
		if v != int64(k) {
			return fmt.Errorf("topo: sequential token %d received value %d", k, v)
		}
	}
	return nil
}
