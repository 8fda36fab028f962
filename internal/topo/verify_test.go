package topo

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// interleavedTallies injects perInput[i] tokens at each network input, runs
// them to quiescence one Stepper transition at a time, in an order rng
// chooses, and returns the output tallies. It is the interleaving oracle
// that Tallies' one pass over the input counts is checked against.
func interleavedTallies(t testing.TB, g *Graph, perInput []int64, rng *rand.Rand) []int64 {
	s := NewStepper(g)
	var live []int
	for in, c := range perInput {
		for range c {
			live = append(live, s.Inject(in))
		}
	}
	for len(live) > 0 {
		i := rng.Intn(len(live))
		done, err := s.Step(live[i])
		if err != nil {
			t.Fatal(err)
		}
		if done {
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return outputCounts(s)
}

// outputCounts returns how many tokens have exited each output of s's
// network: the transition counts of its last w nodes, the counters.
func outputCounts(s *Stepper) []int64 { return slices.Clone(s.counts[s.g.NumBalancers():]) }

// randomNetwork builds a balancing network on 2-6 inputs from 1-4 layers of
// balancers, each taking 1-3 of the open wires, in a shuffled order, and
// giving 1-3 outputs. With tail set, one last balancer with 2-6 outputs
// takes every open wire, which makes the network a counting network.
func randomNetwork(t testing.TB, rng *rand.Rand, tail bool) *Graph {
	t.Helper()
	b := NewBuilder()
	wires := b.Inputs(2 + rng.Intn(5))
	for range 1 + rng.Intn(4) {
		rng.Shuffle(len(wires), func(i, j int) { wires[i], wires[j] = wires[j], wires[i] })
		var next []Out
		for len(wires) > 0 {
			k := min(1+rng.Intn(3), len(wires))
			outs := make([]Out, 1+rng.Intn(3))
			b.BalancerN(wires[:k], outs)
			next, wires = append(next, outs...), wires[k:]
		}
		wires = next
	}
	if tail {
		outs := make([]Out, 2+rng.Intn(5))
		b.BalancerN(wires, outs)
		wires = outs
	}
	b.Terminate(wires)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTalliesMatchInterleavings checks that balancing networks are
// confluent: on random networks, counting and not, with 0-3 tokens at each
// input, random interleavings of the tokens' transitions all leave the
// counters with the tallies Tallies computes from the input counts alone.
// Every other network ends in one balancer over all its wires, so it
// counts; of the rest, enough break the step property on their inputs.
func TestTalliesMatchInterleavings(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	broken := 0
	for n := range 500 {
		g := randomNetwork(t, rng, n%2 == 0)
		per := make([]int64, g.InWidth())
		for i := range per {
			per[i] = int64(rng.Intn(4))
		}
		want, err := Tallies(g, per)
		if err != nil {
			t.Fatal(err)
		}
		if !StepPropertyHolds(want) {
			if n%2 == 0 {
				t.Fatalf("network %d: a balancer over every wire gives outputs %v\n%s", n, want, Render(g))
			}
			broken++
		}
		for range 5 {
			if got := interleavedTallies(t, g, per, rng); !slices.Equal(got, want) {
				t.Fatalf("network %d, inputs %v: an interleaving reaches outputs %v, Tallies gives %v\n%s",
					n, per, got, want, Render(g))
			}
		}
	}
	if broken < 100 {
		t.Errorf("only %d of 250 networks break the step property; the mix lost its non-counting side", broken)
	}
}

func TestExhaustiveWidth2(t *testing.T) {
	g := width2(t)
	n, err := CheckInputs(g, 9)
	if err != nil {
		t.Fatal(err)
	}
	if n != 55 { // C(9+2, 2)
		t.Errorf("checked %d input vectors of up to 9 tokens, want 55", n)
	}
}

func TestExhaustiveRejectsNonCountingNetwork(t *testing.T) {
	// Two independent balancers feeding four counters: a balancing network
	// that is NOT a counting network (output 2 can exceed output 1).
	b := NewBuilder()
	in := b.Inputs(4)
	a0, a1 := b.Balancer2(in[0], in[1])
	c0, c1 := b.Balancer2(in[2], in[3])
	b.Terminate([]Out{a0, a1, c0, c1})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// One token into the second balancer reaches output 2 alone.
	_, err = CheckInputs(g, 2)
	if err == nil || !strings.Contains(err.Error(), "inputs [0 0 0 1]") {
		t.Fatalf("err = %v, want the failure of inputs [0 0 0 1]", err)
	}
}

func TestExhaustiveValidation(t *testing.T) {
	g := width2(t)
	if _, err := Tallies(g, []int64{1}); err == nil {
		t.Error("wrong perInput length accepted")
	}
	if _, err := Tallies(g, []int64{-1, 0}); err == nil {
		t.Error("negative token count accepted")
	}
	if got, err := Tallies(g, []int64{0, 0}); err != nil || !slices.Equal(got, []int64{0, 0}) {
		t.Errorf("zero tokens: %v, %v", got, err)
	}
}
