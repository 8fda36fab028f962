package topo_test

import (
	"testing"

	"countnet/internal/bitonic"
	"countnet/internal/dtree"
	"countnet/internal/topo"
)

// TestBuildAllocs pins the allocation count of building the two networks
// the benchmark workloads use. The Builder carves every node's ports from
// shared arrays and keeps no side tables, so a build allocates once per
// growth of those arrays rather than once per node. The bounds are the
// measured counts (50 and 49 allocations, most of them the []Out slices
// the constructors build or get back from BalancerN) plus 25% headroom,
// so an accidental per-node allocation in the Builder fails here.
func TestBuildAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(int) (*topo.Graph, error)
		w     int
		max   float64
	}{
		{"bitonic[8]", bitonic.New, 8, 62},
		{"tree[32]", dtree.New, 32, 61},
	} {
		got := testing.AllocsPerRun(100, func() {
			if _, err := tc.build(tc.w); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("%s: %.0f allocations per build, want <= %.0f", tc.name, got, tc.max)
		}
	}
}

// BenchmarkBuildBitonic8 times graph construction alone for bitonic[8],
// the network of the net-hot, adaptive-direct and linear workloads.
func BenchmarkBuildBitonic8(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bitonic.New(8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildTree32 times graph construction alone for tree[32], the
// network of the anomaly workload.
func BenchmarkBuildTree32(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dtree.New(32); err != nil {
			b.Fatal(err)
		}
	}
}
