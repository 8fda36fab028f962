package topo_test

import (
	"testing"
	"time"

	"countnet"
	"countnet/internal/bitonic"
	"countnet/internal/dtree"
	"countnet/internal/periodic"
	"countnet/internal/topo"
)

// TestBuildAllocs pins the allocation count of building the networks the
// benchmark workloads use, as a graph and as a whole NewCounter build. The
// constructors reserve every node and port up front and wire their
// networks in place, and Compile carves its balancers, of every toggle
// kind, from 512-byte slabs, so a build allocates a fixed handful of
// objects, not one or more per node. The graph bounds are the measured
// counts (11, 11 and 10) plus headroom of one or two, so an accidental
// per-node allocation fails here. The counter bounds are the measured
// counts themselves, and one more allocation per counter fails here: 17
// and 18 with no options, which allocate no options; 18 for an atomic or
// a mutex bitonic[8], whose options are the one extra object; and 81 for
// a diffracting tree[32], whose 31 prisms take two objects each. Every
// output counter of these networks keeps its word on its feeding
// balancer's line, so Compile allocates no counter array.
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations to every build")
	}
	counter := func(tp func(int) (countnet.Topology, error), opts ...countnet.CounterOption) func(int) error {
		return func(w int) error {
			top, err := tp(w)
			if err == nil {
				_, err = countnet.NewCounter(top, opts...)
			}
			return err
		}
	}
	graph := func(g func(int) (*topo.Graph, error)) func(int) error {
		return func(w int) error { _, err := g(w); return err }
	}
	for _, tc := range []struct {
		name  string
		build func(int) error
		w     int
		max   float64
	}{
		{"bitonic[8]", graph(bitonic.New), 8, 12},
		{"tree[32]", graph(dtree.New), 32, 12},
		{"periodic[8]", graph(periodic.New), 8, 12},
		{"bitonic[8] counter", counter(countnet.BitonicTopology), 8, 17},
		{"tree[32] counter", counter(countnet.TreeTopology), 32, 18},
		{"bitonic[8] atomic counter", counter(countnet.BitonicTopology, countnet.WithBalancer(countnet.Atomic)), 8, 18},
		{"bitonic[8] mutex counter", counter(countnet.BitonicTopology, countnet.WithBalancer(countnet.Mutex)), 8, 18},
		{"tree[32] diffracting counter", counter(countnet.TreeTopology, countnet.WithDiffraction(4, 5*time.Microsecond)), 32, 81},
	} {
		got := testing.AllocsPerRun(100, func() {
			if err := tc.build(tc.w); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("%s: %.0f allocations per build, want <= %.0f", tc.name, got, tc.max)
		}
	}
}
