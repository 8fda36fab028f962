package shm

import (
	"fmt"
	"math"
	"testing"

	"countnet/internal/bitonic"
	"countnet/internal/dtree"
	"countnet/internal/topo"
)

// TestHomeSpread pins the van der Corput spread of processor ids over a
// network's inputs: the first 2^j ids land in distinct blocks of w/2^j
// inputs, so the first two processors enter opposite halves of the
// network, and every home is an input.
func TestHomeSpread(t *testing.T) {
	for _, w := range []int{2, 4, 8, 16, 32} {
		for blocks := 1; blocks <= w; blocks *= 2 {
			seen := make(map[int]uint32, blocks)
			for id := uint32(0); id < uint32(blocks); id++ {
				b := spread(id, w) / (w / blocks)
				if prev, ok := seen[b]; ok {
					t.Errorf("w=%d: ids %d and %d share block %d of %d", w, prev, id, b, blocks)
				}
				seen[b] = id
			}
		}
	}

	// In bitonic[8] inputs 0-3 and 4-7 feed the two Bitonic[4] halves.
	g, err := bitonic.New(8)
	if err != nil {
		t.Fatal(err)
	}
	if h0, h1 := spread(0, g.InWidth()), spread(1, g.InWidth()); h0/4 == h1/4 {
		t.Errorf("bitonic[8]: ids 0 and 1 enter the same Bitonic[4] half (inputs %d, %d)", h0, h1)
	}
	checkHome(t, compile(t, g, Options{}))

	for _, w := range []int{3, 5, 6} {
		t.Run(fmt.Sprintf("inputs%d", w), func(t *testing.T) {
			b := topo.NewBuilder()
			outs := make([]topo.Out, w)
			b.BalancerN(b.Inputs(w), outs)
			b.Terminate(outs)
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range []uint32{0, 1, 2, 3, 4, 5, 6, 7, 255, math.MaxUint32} {
				if h := spread(id, w); h < 0 || h >= w {
					t.Errorf("spread(%d, %d) = %d, outside [0,%d)", id, w, h, w)
				}
			}
			checkHome(t, compile(t, g, Options{}))
		})
	}

	tree, err := dtree.New(32)
	if err != nil {
		t.Fatal(err)
	}
	if h := compile(t, tree, Options{}).Home(); h != 0 {
		t.Errorf("one-input tree: Home() = %d, want 0", h)
	}
}

// checkHome checks that Home returns one of n's inputs, here and from
// goroutines that may run on other processors.
func checkHome(t *testing.T, n *Network) {
	t.Helper()
	homes := make(chan int, 64)
	for range cap(homes) {
		go func() { homes <- n.Home() }()
	}
	for range cap(homes) {
		if h := <-homes; h < 0 || h >= n.InWidth() {
			t.Errorf("Home() = %d, outside [0,%d)", h, n.InWidth())
		}
	}
}

// TestHomeMissAllocs pins a pool miss to zero allocations: the id it
// takes points into procIDs. A hit moves a pointer in and out of the
// pool, which TestNextAllocs in the root package covers.
func TestHomeMissAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() { _ = procs.New() }); got != 0 {
		t.Errorf("pool miss: %v allocs, want 0", got)
	}
}
