package conformance

import (
	"bytes"
	"math/rand"
	"testing"

	"countnet/internal/schedule"
	"countnet/internal/topo"
	"countnet/internal/workload"
)

// miswiredWidth2 builds a width-2 network whose balancer outputs are wired
// to the WRONG counters — the structural form of "one flipped toggle": the
// first token exits with value 1 instead of 0.
func miswiredWidth2(t *testing.T) *topo.Graph {
	t.Helper()
	b := topo.NewBuilder()
	in := b.Inputs(1)
	o0, o1 := b.Balancer12(in[0])
	b.Terminate([]topo.Out{o1, o0}) // swapped on purpose
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSeededMiswiringCaughtAndShrunk seeds a structural engine bug (the
// balancer's outputs swapped, as a scratch-branch toggle flip would do) and
// demonstrates the acceptance pipeline: the fuzzer catches it, the shrinker
// minimizes the failing schedule to <= 8 operations, and the reproducer
// survives JSONL serialization still failing.
func TestSeededMiswiringCaughtAndShrunk(t *testing.T) {
	g := miswiredWidth2(t)
	rng := rand.New(rand.NewSource(1))
	var failing *schedule.Concrete
	for round := 0; round < 200 && failing == nil; round++ {
		c := Generate(rng, workload.Bitonic, 2, g, GenOptions{Bounded: true})
		if CheckConcrete(g, c) != nil {
			failing = c
		}
	}
	if failing == nil {
		t.Fatal("fuzzer did not catch the miswired balancer in 200 rounds")
	}
	fails := func(c *schedule.Concrete) bool { return CheckConcrete(g, c) != nil }
	minimal := Shrink(failing, fails)
	if !fails(minimal) {
		t.Fatal("shrunk schedule no longer fails")
	}
	if got := len(minimal.Tokens); got > 8 {
		t.Fatalf("shrunk reproducer has %d operations, want <= 8", got)
	}
	// The reproducer must survive the serialize/replay round trip.
	var buf bytes.Buffer
	if err := schedule.WriteConcrete(&buf, minimal); err != nil {
		t.Fatal(err)
	}
	replayed, err := schedule.ReadConcrete(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !fails(replayed) {
		t.Fatal("replayed reproducer no longer fails")
	}
	t.Logf("miswiring shrunk to %d token(s): %+v", len(minimal.Tokens), minimal.Tokens)
}

// swappedValuesRunner emulates a timing-side toggle bug: the two tokens
// that received values 0 and 1 have them exchanged, as if the first
// balancer served its first two critical sections in the wrong order.
func swappedValuesRunner(g *topo.Graph, c *schedule.Concrete) (*schedule.Result, error) {
	res, err := DefaultRunner(g, c)
	if err != nil {
		return nil, err
	}
	i0, i1 := -1, -1
	for k, op := range res.Ops {
		switch op.Value {
		case 0:
			i0 = k
		case 1:
			i1 = k
		}
	}
	if i0 >= 0 && i1 >= 0 {
		res.Ops[i0].Value, res.Ops[i1].Value = res.Ops[i1].Value, res.Ops[i0].Value
	}
	return res, nil
}

// TestSeededValueSwapCaughtAndShrunk seeds the behavioural form of the
// toggle flip — values 0 and 1 exchanged between their tokens. The
// permutation still holds, so only the Corollary 3.9 check can see it; the
// fuzzer finds a bounded schedule where the swap manifests as a
// non-linearizable operation and the shrinker reduces it to the minimal
// two-token witness.
func TestSeededValueSwapCaughtAndShrunk(t *testing.T) {
	g, err := workload.Bitonic.Build(4)
	if err != nil {
		t.Fatal(err)
	}
	fails := func(c *schedule.Concrete) bool {
		return CheckConcreteWith(swappedValuesRunner, g, c) != nil
	}
	rng := rand.New(rand.NewSource(2))
	var failing *schedule.Concrete
	for round := 0; round < 500 && failing == nil; round++ {
		c := Generate(rng, workload.Bitonic, 4, g, GenOptions{Bounded: true})
		if fails(c) {
			failing = c
		}
	}
	if failing == nil {
		t.Fatal("fuzzer did not catch the value swap in 500 rounds")
	}
	minimal := Shrink(failing, fails)
	if !fails(minimal) {
		t.Fatal("shrunk schedule no longer fails")
	}
	if got := len(minimal.Tokens); got > 8 {
		t.Fatalf("shrunk reproducer has %d operations, want <= 8", got)
	}
	t.Logf("value swap shrunk to %d token(s)", len(minimal.Tokens))
}

// TestShrinkReturnsInputWhenNotFailing documents the no-op contract.
func TestShrinkReturnsInputWhenNotFailing(t *testing.T) {
	c := &schedule.Concrete{
		Net: "bitonic", Width: 2, C1: 10, C2: 20,
		Tokens: []schedule.ConcreteToken{{Time: 5, Input: 0, Delays: []int64{15}}},
	}
	out := Shrink(c, func(*schedule.Concrete) bool { return false })
	if len(out.Tokens) != 1 || out.Tokens[0].Time != 5 {
		t.Fatalf("non-failing schedule was mutated: %+v", out)
	}
}
