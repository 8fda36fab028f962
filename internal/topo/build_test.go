package topo_test

import (
	"runtime"
	"testing"
	"time"

	"countnet"
	"countnet/internal/bitonic"
	"countnet/internal/dtree"
	"countnet/internal/periodic"
	"countnet/internal/topo"
)

// TestBuildAllocs pins the allocations and the bytes of building the
// networks the benchmark workloads use, as a graph and as a whole
// NewCounter build. The constructors reserve every node and port up front
// and wire their networks in place, the Builder sets each node's layer as
// it adds the node, and Compile carves its balancers, of every toggle
// kind, from 1024-byte slabs of eight line pairs, so a build allocates a
// fixed handful of objects, not one or more per node. The allocation
// bounds are the measured counts themselves, so one more allocation per
// build fails here: 7, 7 and 6 per graph; 13 and 14 per counter with no
// options, which allocate no options; 14 for an atomic or a mutex
// bitonic[8], whose options are the one extra object; and 77 for a
// diffracting tree[32], whose 31 prisms take two objects each. Every
// output counter of these networks keeps its word on its feeding
// balancer's line, so Compile allocates no counter array. The byte bounds
// are the measured bytes plus 5%: a port or a source back at 16 bytes, a
// wire end at 24, or a node back at 28, adds more than that to each graph.
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
		name          string
		build         func(int) error
		w             int
		allocs, bytes uint64
	}{
		{"bitonic[8]", graph(bitonic.New), 8, 7, 1936},
		{"tree[32]", graph(dtree.New), 32, 7, 3176},
		{"periodic[8]", graph(periodic.New), 8, 6, 2448},
		{"bitonic[8] counter", counter(countnet.BitonicTopology), 8, 13, 5752},
		{"tree[32] counter", counter(countnet.TreeTopology), 32, 14, 8272},
		{"bitonic[8] atomic counter", counter(countnet.BitonicTopology, countnet.WithBalancer(countnet.Atomic)), 8, 14, 5784},
		{"bitonic[8] mutex counter", counter(countnet.BitonicTopology, countnet.WithBalancer(countnet.Mutex)), 8, 14, 5784},
		{"tree[32] diffracting counter", counter(countnet.TreeTopology, countnet.WithDiffraction(4, 5*time.Microsecond)), 32, 77, 11776},
	} {
		allocs, bytes := perBuild(100, func() {
			if err := tc.build(tc.w); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.allocs {
			t.Errorf("%s: %d allocations per build, want <= %d", tc.name, allocs, tc.allocs)
		}
		if limit := tc.bytes + tc.bytes/20; bytes > limit {
			t.Errorf("%s: %d bytes per build, want <= %d", tc.name, bytes, limit)
		}
	}
}

// TestLayersConstructions checks the layers the Builder sets as it adds
// each node against topo's reference recomputation from the node sources.
func TestLayersConstructions(t *testing.T) { checkConstructions(t, topo.CheckLayers) }

// TestCountersConstructions checks that every construction's counters are
// its last nodes, in output order, against topo's reference recomputation
// from the node fan-outs and the encoding.
func TestCountersConstructions(t *testing.T) { checkConstructions(t, topo.CheckCounters) }

// checkConstructions runs check on every constructor at each width from 2
// to 32, an arity-3 tree at 3, 9 and 27, and padded copies of each.
func checkConstructions(t *testing.T, check func(*topo.Graph) error) {
	type ctor struct {
		name   string
		new    func(int) (*topo.Graph, error)
		widths []int
	}
	pow2 := []int{2, 4, 8, 16, 32}
	for _, c := range []ctor{
		{"bitonic", bitonic.New, pow2},
		{"periodic", periodic.New, pow2},
		{"tree", dtree.New, pow2},
		{"tree arity 3", func(w int) (*topo.Graph, error) { return dtree.NewArity(w, 3) }, []int{3, 9, 27}},
	} {
		for _, w := range c.widths {
			g, err := c.new(w)
			if err != nil {
				t.Fatalf("%s[%d]: %v", c.name, w, err)
			}
			for _, pad := range []int{0, 1, 3} {
				pg, err := topo.Pad(g, pad)
				if err != nil {
					t.Fatalf("%s[%d] pad %d: %v", c.name, w, pad, err)
				}
				if err := check(pg); err != nil {
					t.Errorf("%s[%d] pad %d: %v", c.name, w, pad, err)
				}
			}
			if err := check(g); err != nil {
				t.Errorf("%s[%d]: %v", c.name, w, err)
			}
		}
	}
}

// perBuild returns the average number of heap allocations and of bytes
// allocated by one call of f, as testing.AllocsPerRun counts them: on one
// processor, after one warm-up call.
func perBuild(runs int, f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
