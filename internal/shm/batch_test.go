package shm

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"countnet/internal/bitonic"
	"countnet/internal/dtree"
	"countnet/internal/obs"
	"countnet/internal/topo"
)

// TestBatchBalancerMatchesSequential checks, per toggle kind, that one
// route critical section routes exactly like the same number of
// back-to-back Traverse calls — including when the batch starts from a
// mid-cycle toggle position.
func TestBatchBalancerMatchesSequential(t *testing.T) {
	const fanOut, warmup, demand = 3, 2, 10
	for _, kind := range []Kind{KindAtomic, KindMutex, KindMCS} {
		t.Run(kind.String(), func(t *testing.T) {
			batched, err := NewBalancer(kind, fanOut)
			if err != nil {
				t.Fatal(err)
			}
			sequential, err := NewBalancer(kind, fanOut)
			if err != nil {
				t.Fatal(err)
			}
			// Skew the toggle off its initial position first.
			for i := 0; i < warmup; i++ {
				batched.Traverse()
				sequential.Traverse()
			}
			got := make([]int, fanOut)
			batched.route(demand, got)
			want := make([]int, fanOut)
			for i := 0; i < demand; i++ {
				want[sequential.Traverse()]++
			}
			for p := range want {
				if got[p] != want[p] {
					t.Fatalf("output %d: batch routed %d, sequential %d (full: %v vs %v)",
						p, got[p], want[p], got, want)
				}
			}
		})
	}
}

// TestTraverseBatchMatchesSequential runs the same demand through two
// identical networks — one batched walk vs. back-to-back single tokens —
// and checks both hand out exactly the values 0..demand-1.
func TestTraverseBatchMatchesSequential(t *testing.T) {
	const demand = 37
	g, err := bitonic.New(4)
	if err != nil {
		t.Fatal(err)
	}
	batched := compile(t, g, Options{Kind: KindMCS})
	sequential := compile(t, g, Options{Kind: KindMCS})

	got := batched.TraverseBatch(0, demand, 0, 0, 0, nil)
	if len(got) != demand {
		t.Fatalf("batch returned %d values for demand %d", len(got), demand)
	}
	want := make([]int64, demand)
	for i := range want {
		want[i] = sequential.Traverse(0)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted values diverge at %d: batch %d, sequential %d", i, got[i], want[i])
		}
	}
}

func TestTraverseBatchZeroDemand(t *testing.T) {
	g, err := bitonic.New(2)
	if err != nil {
		t.Fatal(err)
	}
	n := compile(t, g, Options{})
	if got := n.TraverseBatch(0, 0, 0, 0, 0, nil); got != nil {
		t.Fatalf("demand 0 returned %v", got)
	}
	if got := n.TraverseBatch(0, -3, 0, 0, 0, nil); got != nil {
		t.Fatalf("negative demand returned %v", got)
	}
}

// TestTraverseBatchVisitsEachNodeOnce checks the afterNode contract for
// a single token: the hook fires once per node on the path — the
// network's depth in balancers plus the final counter.
func TestTraverseBatchVisitsEachNodeOnce(t *testing.T) {
	g, err := bitonic.New(4)
	if err != nil {
		t.Fatal(err)
	}
	n := compile(t, g, Options{Kind: KindMCS})
	visits := map[topo.NodeID]int{}
	n.TraverseBatch(0, 1, 0, 0, 0, func(id topo.NodeID) { visits[id]++ })
	if len(visits) != g.Depth()+1 {
		t.Fatalf("visited %d nodes, want depth %d balancers + 1 counter", len(visits), g.Depth())
	}
	for id, c := range visits {
		if c != 1 {
			t.Fatalf("node %d visited %d times by a single token", id, c)
		}
	}
}

// TestTraverseBatchSpans checks a combined group's journey is causally
// stamped like a single token's: every balancer and counter event of a
// batch carries a span and chains onto an event of the trace, or is the
// group's one root, so the trace closes with no orphans.
func TestTraverseBatchSpans(t *testing.T) {
	g, err := bitonic.New(8)
	if err != nil {
		t.Fatal(err)
	}
	n := compile(t, g, Options{Kind: KindMCS})
	ring := obs.NewRing(1, 1<<12)
	n.EnableObs(ring, nil, nil, 0)
	demands := []int{4, 8, 13}
	for i, demand := range demands {
		if vals := n.TraverseBatch(i%g.InWidth(), demand, 0, int32(i), 0, nil); len(vals) != demand {
			t.Fatalf("demand %d returned %d values", demand, len(vals))
		}
	}
	events := ring.Events()
	spans := map[uint64]bool{}
	for _, ev := range events {
		spans[ev.Span] = true
	}
	roots := map[int32]int{}
	for _, ev := range events {
		if ev.Kind != obs.KindBalancer && ev.Kind != obs.KindCounter {
			t.Fatalf("unexpected event kind in a batch trace: %+v", ev)
		}
		if ev.Span == 0 {
			t.Fatalf("unstamped batch event: %+v", ev)
		}
		if ev.Parent == 0 {
			roots[ev.Tok]++
		} else if !spans[ev.Parent] {
			t.Fatalf("batch event chains onto span %d, which is not in the trace: %+v", ev.Parent, ev)
		}
	}
	for i := range demands {
		if roots[int32(i)] != 1 {
			t.Fatalf("batch %d has %d root events, want 1 (the first balancer)", i, roots[int32(i)])
		}
	}
	if _, orphans := obs.CausalClosure(events); orphans != 0 {
		t.Fatalf("batch trace not causally closed: %d orphans", orphans)
	}
}

// TestWalkAllocs pins the allocation count of every walk entry on
// bitonic[8], for atomic and MCS toggles: a single token walks
// allocation-free, traced or not, and a batch allocates only its values
// slice (the per-balancer tally stays on the stack). A lone MCS token
// takes the idle fast path and draws no queue node; a batch always queues
// on a node from the pool and puts it back. The race detector makes
// sync.Pool drop items on purpose, so the MCS case is skipped under
// -race.
func TestWalkAllocs(t *testing.T) {
	g, err := bitonic.New(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Kind{KindAtomic, KindMCS} {
		t.Run(kind.String(), func(t *testing.T) {
			if kind == KindMCS && raceEnabled {
				t.Skip("sync.Pool drops items on purpose under -race")
			}
			n := compile(t, g, Options{Kind: kind})
			traced := compile(t, g, Options{Kind: kind})
			traced.EnableObs(obs.NewRing(1, 64), nil, nil, 0)
			hook := func(topo.NodeID) {}
			for _, tc := range []struct {
				name string
				max  float64
				call func()
			}{
				{"Traverse", 0, func() { n.Traverse(1) }},
				{"TraverseSpan", 0, func() { n.TraverseSpan(1, 0, 0, 0, hook) }},
				{"TraverseSpan/traced", 0, func() { traced.TraverseSpan(1, 0, 0, 0, hook) }},
				{"TraverseBatch/1", 1, func() { n.TraverseBatch(1, 1, 0, 0, 0, nil) }},
				{"TraverseBatch/2", 2, func() { n.TraverseBatch(1, 2, 0, 0, 0, nil) }},
				{"TraverseBatch/4", 2, func() { n.TraverseBatch(1, 4, 0, 0, 0, nil) }},
				{"TraverseBatch/8", 2, func() { n.TraverseBatch(1, 8, 0, 0, 0, hook) }},
			} {
				if got := testing.AllocsPerRun(200, tc.call); got > tc.max {
					t.Errorf("%s: %v allocs per call, want at most %v", tc.name, got, tc.max)
				}
			}
		})
	}
}

// TestBalancerLayout pins the layout every toggle's cost depends on. The
// unit is an aligned 128-byte pair of cache lines, which the adjacent-line
// prefetcher moves together. A balancer of any kind, bare or behind a
// prism, keeps every word a token writes (lock, toggle, mutex, position
// and counter words) on one line of a pair, and the words Compile fixes
// (fan-out, output offset, kind, prism, successors) on the other line of
// the same pair, so the idle fast path reads the lock, swaps the toggle
// and takes an exit value on one line and finds the next hop on its
// buddy. No other balancer's or counter's word is in that pair. Every output counter fed
// by port 0 or 1 of a balancer keeps its word on that balancer's written
// line, so a token's exit hop takes its value on the line it just swapped;
// a counter fed by any other port keeps a pair of its own, shared with no
// balancer and no other counter, and a network with no such counter
// allocates no spare pairs. Compile carves the balancers from shared
// slabs, so this holds only while the allocator starts every slab on a
// 128-byte boundary or 8 bytes past one. The test checks both starts
// from the field offsets, then the balancers Compile lays out; the
// networks cover a partial slab of seven, one of five, several slabs, and
// ten, all 8 bytes past a boundary, a slab of three, which has no malloc
// header and starts on one, and a ternary tree whose port-2 counters have
// no balancer's line.
func TestBalancerLayout(t *testing.T) {
	const line, pair = 64, 128
	if sz := unsafe.Sizeof(Balancer{}); sz != pair {
		t.Errorf("Balancer is %d bytes, want %d", sz, pair)
	}
	type word struct {
		name string
		p    unsafe.Pointer
		size uintptr
	}
	// lineOf returns the line holding w, failing if w straddles two.
	lineOf := func(name string, w word) uintptr {
		first := uintptr(w.p) / line
		if last := (uintptr(w.p) + w.size - 1) / line; last != first {
			t.Errorf("%s: %s straddles lines %d and %d", name, w.name, first, last)
		}
		return first
	}
	// groups returns b's written words and its Compile-time words.
	groups := func(b *Balancer) (written, fixed []word) {
		return []word{
				{"lock", unsafe.Pointer(&b.lock), unsafe.Sizeof(b.lock)},
				{"toggle", unsafe.Pointer(&b.toggle), unsafe.Sizeof(b.toggle)},
				{"exits[0]", unsafe.Pointer(&b.exits[0]), unsafe.Sizeof(b.exits[0])},
				{"exits[1]", unsafe.Pointer(&b.exits[1]), unsafe.Sizeof(b.exits[1])},
				{"mu", unsafe.Pointer(&b.mu), unsafe.Sizeof(b.mu)},
				{"pos", unsafe.Pointer(&b.pos), unsafe.Sizeof(b.pos)},
			}, []word{
				{"fanOut", unsafe.Pointer(&b.fanOut), unsafe.Sizeof(b.fanOut)},
				{"out", unsafe.Pointer(&b.out), unsafe.Sizeof(b.out)},
				{"kind", unsafe.Pointer(&b.kind), unsafe.Sizeof(b.kind)},
				{"prism", unsafe.Pointer(&b.prism), unsafe.Sizeof(b.prism)},
				{"succ", unsafe.Pointer(&b.succ), unsafe.Sizeof(b.succ)},
			}
	}
	// Whatever the allocator does, a balancer starting on a 128-byte
	// boundary or 8 bytes past one keeps its written words on the first
	// line of its pair and its Compile-time words on the second.
	var b0 Balancer
	written, fixed := groups(&b0)
	for _, start := range []uintptr{0, 8} {
		for want, ws := range [][]word{written, fixed} {
			for _, w := range ws {
				off := start + uintptr(w.p) - uintptr(unsafe.Pointer(&b0))
				if first, last := off/line, (off+w.size-1)/line; first != uintptr(want) || last != uintptr(want) {
					t.Errorf("start %d: %s on lines %d to %d of the pair, want line %d", start, w.name, first, last, want)
				}
			}
		}
	}
	ternary := func(w int) (*topo.Graph, error) { return dtree.NewArity(w, 3) }
	for _, tc := range []struct {
		name   string
		build  func(int) (*topo.Graph, error)
		w      int
		spares int // counters fed by no port 0 or 1
	}{
		{"bitonic[8]", bitonic.New, 8, 0},
		{"tree[32]", dtree.New, 32, 0},
		{"bitonic[16]", bitonic.New, 16, 0},
		{"tree[27,3]", ternary, 27, 9},
		{"tree[4]", dtree.New, 4, 0},
	} {
		g, err := tc.build(tc.w)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []Kind{KindAtomic, KindMutex, KindMCS} {
			for _, diffract := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/diffract=%t", tc.name, kind, diffract)
				n := compile(t, g, Options{Kind: kind, Diffract: diffract})
				owner := map[uintptr]topo.NodeID{} // pair -> the one node with words in it
				own := func(id topo.NodeID, l uintptr) {
					if prev, ok := owner[l*line/pair]; ok && prev != id {
						t.Errorf("%s: nodes %d and %d share a 128-byte pair", name, prev, id)
					}
					owner[l*line/pair] = id
				}
				for _, id := range g.Balancers() {
					b := n.balancers[id]
					if Kind(b.kind) != kind || (b.prism != nil) != (diffract && b.fanOut == 2) {
						t.Fatalf("%s: balancer %d is %s with prism %t", name, id, Kind(b.kind), b.prism != nil)
					}
					written, fixed := groups(b)
					wl := lineOf(name, written[0])
					for _, w := range written {
						if l := lineOf(name, w); l != wl {
							t.Errorf("%s: balancer %d: %s on line %d, lock on line %d", name, id, w.name, l, wl)
						}
					}
					for _, w := range fixed {
						if l := lineOf(name, w); l != wl^1 {
							t.Errorf("%s: balancer %d: %s on line %d, want %d, the written line %d's buddy", name, id, w.name, l, wl^1, wl)
						}
					}
					own(id, wl)
				}
				spares := 0
				for id := range topo.NodeID(g.NumNodes()) {
					if g.KindOf(id) != topo.KindCounter {
						continue
					}
					w := n.word(id)
					l := lineOf(name, word{"counter word", unsafe.Pointer(w), unsafe.Sizeof(*w)})
					if src := g.InSrc(id, 0); onLine(src) {
						if bl := uintptr(unsafe.Pointer(&n.balancers[src.Node].lock)) / line; bl != l {
							t.Errorf("%s: counter %d on line %d, its feeding balancer %d's written line is %d", name, id, l, src.Node, bl)
						}
						continue
					}
					spares++
					own(id, l)
				}
				if spares != tc.spares {
					t.Errorf("%s: %d counters off every balancer's line, want %d", name, spares, tc.spares)
				}
				if (n.spare == nil) != (tc.spares == 0) {
					t.Errorf("%s: spare pairs allocated %t with %d counters needing one", name, n.spare != nil, spares)
				}
			}
		}
	}
}

// TestTraverseBatchConcurrentWithSingles interleaves batched walks with
// plain traversals on one shared network; the union of everything
// handed out must still be a gapless permutation.
func TestTraverseBatchConcurrentWithSingles(t *testing.T) {
	g, err := bitonic.New(8)
	if err != nil {
		t.Fatal(err)
	}
	n := compile(t, g, Options{Kind: KindMCS})
	const goroutines, rounds, batch = 8, 30, 5
	results := make([][]int64, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := w % g.InWidth()
			for r := 0; r < rounds; r++ {
				if w%2 == 0 {
					results[w] = append(results[w], n.TraverseBatch(in, batch, int32(w), 0, 0, nil)...)
				} else {
					for i := 0; i < batch; i++ {
						results[w] = append(results[w], n.Traverse(in))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	total := goroutines * rounds * batch
	seen := make([]bool, total)
	for _, vs := range results {
		for _, v := range vs {
			if v < 0 || v >= int64(total) || seen[v] {
				t.Fatalf("value %d duplicated or out of range [0,%d)", v, total)
			}
			seen[v] = true
		}
	}
}
