package shm

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"countnet/internal/bitonic"
	"countnet/internal/dtree"
	"countnet/internal/periodic"
	"countnet/internal/topo"
)

func TestNewBalancerValidation(t *testing.T) {
	if _, err := NewBalancer(KindAtomic, 0); err == nil {
		t.Error("fanOut 0 accepted")
	}
	if _, err := NewBalancer(Kind(99), 2); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := NewDiffracting(nil, 4, time.Microsecond); err == nil {
		t.Error("nil inner accepted")
	}
	b, _ := NewBalancer(KindAtomic, 2)
	if _, err := NewDiffracting(b, 4, 0); err == nil {
		t.Error("zero window accepted")
	}
	// A diffracted pair leaves on ports 0 and 1 only, so a prism on any
	// other fan-out would starve the rest: four tokens could land 2/2/0
	// where the step property requires 2/1/1.
	for _, fanOut := range []int{1, 3, 4} {
		b, _ := NewBalancer(KindMCS, fanOut)
		if _, err := NewDiffracting(b, 4, time.Microsecond); err == nil {
			t.Errorf("prism on a %d-output balancer accepted", fanOut)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindAtomic: "atomic", KindMutex: "mutex", KindMCS: "mcs"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
}

// TestBalancerStepProperty hammers each balancer implementation and checks
// the quiescent step property on its outputs.
func TestBalancerStepProperty(t *testing.T) {
	const goroutines = 8
	const iters = 2000
	mk := func(t *testing.T, kind Kind, diffract bool) *Balancer {
		t.Helper()
		b, err := NewBalancer(kind, 2)
		if err != nil {
			t.Fatal(err)
		}
		if diffract {
			if b, err = NewDiffracting(b, 4, 2*time.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	for name, b := range map[string]*Balancer{
		"atomic":      mk(t, KindAtomic, false),
		"mutex":       mk(t, KindMutex, false),
		"mcs":         mk(t, KindMCS, false),
		"diffracting": mk(t, KindMCS, true),
	} {
		counts := make([]int64, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					out := b.Traverse()
					if out == 0 {
						counts[g]++
					} else if out != 1 {
						t.Errorf("%s: output %d out of range", name, out)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		var zeros int64
		for _, c := range counts {
			zeros += c
		}
		total := int64(goroutines * iters)
		diff := zeros - (total - zeros)
		if diff < 0 || diff > 1 {
			t.Errorf("%s: port counts %d/%d violate the step property", name, zeros, total-zeros)
		}
	}
}

func TestBalancerFanOutN(t *testing.T) {
	b, err := NewBalancer(KindAtomic, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 3)
	for i := 0; i < 9; i++ {
		counts[b.Traverse()]++
	}
	for p, c := range counts {
		if c != 3 {
			t.Errorf("port %d count %d", p, c)
		}
	}
}

func compile(t *testing.T, g *topo.Graph, opts Options) *Network {
	t.Helper()
	n, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// namedGraph is a network under test and the name its subtests carry.
type namedGraph struct {
	name string
	g    *topo.Graph
}

// walkGraphs builds the networks the walk tests cover: fan-out 2
// (bitonic, periodic, tree), fan-out 3 (a ternary tree, whose balancers
// stay bare under Diffract and whose port-2 counters keep lines of their
// own), fan-out 1 (a padded network's pass-through balancers) and an input
// wired straight to a counter.
func walkGraphs(t *testing.T) []namedGraph {
	t.Helper()
	b8, err := bitonic.New(8)
	if err != nil {
		t.Fatal(err)
	}
	p8, err := periodic.New(8)
	if err != nil {
		t.Fatal(err)
	}
	t32, err := dtree.New(32)
	if err != nil {
		t.Fatal(err)
	}
	t27, err := dtree.NewArity(27, 3)
	if err != nil {
		t.Fatal(err)
	}
	padded, err := topo.Pad(b8, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Input 0 enters a two-output balancer; input 1 is wired straight to
	// counter 2.
	bld := topo.NewBuilder()
	ins := bld.Inputs(2)
	o0, o1 := bld.Balancer12(ins[0])
	bld.Terminate([]topo.Out{o0, o1, ins[1]})
	bypass, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	return []namedGraph{
		{"bitonic[8]", b8},
		{"periodic[8]", p8},
		{"tree[32]", t32},
		{"tree[27,3]", t27},
		{"padded bitonic[8]", padded},
		{"bypass", bypass},
	}
}

// TestWalkMatchesStepper pins the single-token walk against the graph.
// One goroutine sends the same input sequence through a compiled network
// and through topo.Stepper, under every toggle kind, bare and diffracted.
// With no partner a prism always falls back to its toggle, so each
// token's node sequence, seen by TraverseSpan's hook, and its value must
// equal the Stepper's Path and Value, and plain Traverse on a second
// network must hand out the same values. One combined group then walks
// each network through TraverseBatch, whose exits reach a counter through
// the graph rather than from the balancer the group left; its sorted
// values must equal the Stepper's for as many tokens from the same input.
// Last, both networks' CounterCounts and Issued must equal the Stepper's
// tallies. The networks are walkGraphs'.
func TestWalkMatchesStepper(t *testing.T) {
	for _, net := range walkGraphs(t) {
		for _, kind := range []Kind{KindAtomic, KindMutex, KindMCS} {
			for _, diffract := range []bool{false, true} {
				opts := Options{Kind: kind, Diffract: diffract, PrismWindow: time.Microsecond}
				name := net.name + "/" + kind.String()
				if diffract {
					name += "/diffract"
				}
				t.Run(name, func(t *testing.T) {
					hooked, plain := compile(t, net.g, opts), compile(t, net.g, opts)
					s := topo.NewStepper(net.g)
					s.TrackPaths()
					tokens := 3 * net.g.OutWidth()
					var path []topo.NodeID
					hook := func(id topo.NodeID) {
						if path = append(path, id); len(path) > net.g.Depth()+1 {
							t.Fatalf("walk longer than the network: %v", path)
						}
					}
					for i := range tokens {
						in := (7*i + i/3) % net.g.InWidth()
						tok := s.Inject(in)
						want, err := s.Run(tok)
						if err != nil {
							t.Fatal(err)
						}
						path = path[:0]
						if v, _ := hooked.TraverseSpan(in, 0, int32(i), 0, hook); v != want {
							t.Fatalf("token %d from input %d: TraverseSpan value %d, Stepper %d", i, in, v, want)
						}
						if !slices.Equal(path, s.Path(tok)) {
							t.Fatalf("token %d from input %d: walk visited %v, Stepper %v", i, in, path, s.Path(tok))
						}
						if v := plain.Traverse(in); v != want {
							t.Fatalf("token %d from input %d: Traverse value %d, Stepper %d", i, in, v, want)
						}
					}
					const group = 11
					in := 1 % net.g.InWidth()
					want := make([]int64, group)
					for i := range want {
						v, err := s.Run(s.Inject(in))
						if err != nil {
							t.Fatal(err)
						}
						want[i] = v
					}
					slices.Sort(want)
					for _, n := range []*Network{hooked, plain} {
						got := n.TraverseBatch(in, group, 0, 0, 0, nil)
						if slices.Sort(got); !slices.Equal(got, want) {
							t.Fatalf("group of %d from input %d: TraverseBatch values %v, Stepper %v", group, in, got, want)
						}
					}
					// The Stepper's counter on Y_i hands out i + w*a, so its
					// tallies follow from the values of its tokens.
					counts := make([]int64, net.g.OutWidth())
					issued := int64(tokens + group)
					for tok := range tokens + group {
						v, _ := s.Value(tok)
						counts[v%int64(len(counts))]++
					}
					for _, n := range []*Network{hooked, plain} {
						if got := n.CounterCounts(); !slices.Equal(got, counts) {
							t.Errorf("CounterCounts %v, Stepper %v", got, counts)
						}
						if got := n.Issued(); got != issued {
							t.Errorf("Issued %d, Stepper %d", got, issued)
						}
					}
				})
			}
		}
	}
}

// TestBalancerSuccessors pins the links a plain token follows
// (Balancer.succ) against the graph: on the networks the walk and layout
// tests build, under every kind, bare and diffracted, port p of each
// balancer, for p below both its fan-out and two, must lead to the
// balancer the graph wires it to, or to nil where it feeds a counter, and
// no other link may be set.
func TestBalancerSuccessors(t *testing.T) {
	b16, err := bitonic.New(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range append(walkGraphs(t), namedGraph{"bitonic[16]", b16}) {
		for _, kind := range []Kind{KindAtomic, KindMutex, KindMCS} {
			for _, diffract := range []bool{false, true} {
				n := compile(t, net.g, Options{Kind: kind, Diffract: diffract})
				for _, id := range net.g.Balancers() {
					b := n.balancers[id]
					for p := range b.succ {
						var want *Balancer
						if p < net.g.FanOut(id) {
							want = n.balancers[net.g.OutDest(id, p).Node]
						}
						if b.succ[p] != want {
							t.Errorf("%s/%s/diffract=%t: balancer %d port %d leads to %p, want %p", net.name, kind, diffract, id, p, b.succ[p], want)
						}
					}
				}
			}
		}
	}
}

// TestNetworkCountsPermutation checks end-to-end counting correctness for
// every toggle kind and both network families under real concurrency.
func TestNetworkCountsPermutation(t *testing.T) {
	gb, err := bitonic.New(8)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := dtree.New(8)
	if err != nil {
		t.Fatal(err)
	}
	// A ternary tree's port-2 counters keep words on lines of their own.
	g3, err := dtree.NewArity(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*Network{
		"bitonic/atomic": compile(t, gb, Options{Kind: KindAtomic}),
		"bitonic/mutex":  compile(t, gb, Options{Kind: KindMutex}),
		"bitonic/mcs":    compile(t, gb, Options{Kind: KindMCS}),
		"dtree/mcs":      compile(t, gt, Options{Kind: KindMCS}),
		"dtree/diffract": compile(t, gt, Options{Kind: KindMCS, Diffract: true}),
		"dtree3/mcs":     compile(t, g3, Options{Kind: KindMCS}),
	}
	for name, n := range cases {
		const workers = 8
		const perWorker = 400
		total := workers * perWorker
		got := make([][]int64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				vals := make([]int64, 0, perWorker)
				in := w % n.InWidth()
				for i := 0; i < perWorker; i++ {
					vals = append(vals, n.Traverse(in))
				}
				got[w] = vals
			}(w)
		}
		wg.Wait()
		seen := make([]bool, total)
		for _, vals := range got {
			for _, v := range vals {
				if v < 0 || v >= int64(total) {
					t.Fatalf("%s: value %d out of range", name, v)
				}
				if seen[v] {
					t.Fatalf("%s: value %d duplicated", name, v)
				}
				seen[v] = true
			}
		}
		if !topo.StepPropertyHolds(n.CounterCounts()) {
			t.Errorf("%s: quiescent counter counts %v violate step property", name, n.CounterCounts())
		}
	}
}

// TestSingleWorkerValuesSequential checks the sequential guarantee through
// the real runtime: one goroutine alone must count 0, 1, 2, ...
//
// Note the deliberate contrast: with MULTIPLE goroutines, a worker's own
// successive values need NOT increase on a counting network — that is
// exactly the linearizability violation this paper studies (a goroutine
// preempted mid-traversal plays the role of a token with c2 >> c1), and
// real runs of this package do exhibit it. Only the c2 <= 2*c1 condition
// (or padding) restores the ordering, which wall-clock goroutine scheduling
// cannot promise.
func TestSingleWorkerValuesSequential(t *testing.T) {
	g, err := dtree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	n := compile(t, g, Options{Kind: KindMCS, Diffract: true})
	for k := 0; k < 500; k++ {
		if v := n.Traverse(0); v != int64(k) {
			t.Fatalf("sequential traversal %d returned %d", k, v)
		}
	}
}

func TestCompileValidation(t *testing.T) {
	if _, err := Compile(nil, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestStressBasic(t *testing.T) {
	g, err := bitonic.New(8)
	if err != nil {
		t.Fatal(err)
	}
	n := compile(t, g, Options{Kind: KindMCS})
	res, err := Stress(StressConfig{Net: n, Workers: 8, Ops: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ops) != 2000 {
		t.Fatalf("recorded %d ops", len(res.Ops))
	}
	if res.Throughput <= 0 {
		t.Errorf("throughput %f", res.Throughput)
	}
	// Values must be exactly 0..1999.
	seen := make([]bool, 2000)
	for _, op := range res.Ops {
		if op.Value < 0 || op.Value >= 2000 || seen[op.Value] {
			t.Fatalf("bad value %d", op.Value)
		}
		seen[op.Value] = true
	}
}

// TestDrive checks the shared driver's contract: every token in [0, ops)
// is issued exactly once, its operation lands in the slot the token
// indexes with start <= end, and an error from next stops the run and
// is returned in place of the log.
func TestDrive(t *testing.T) {
	const workers, ops = 8, 1000
	log, err := Drive(time.Now(), workers, ops, func(proc, tok int32) (int64, error) {
		if proc < 0 || proc >= workers {
			t.Errorf("proc %d outside [0,%d)", proc, workers)
		}
		return 10 * int64(tok), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != ops {
		t.Fatalf("logged %d ops, want %d", len(log), ops)
	}
	for tok, op := range log {
		if op.Value != 10*int64(tok) || op.Start > op.End {
			t.Fatalf("slot %d holds %+v", tok, op)
		}
	}
	boom := errors.New("boom")
	log, err = Drive(time.Now(), workers, ops, func(_, tok int32) (int64, error) {
		if tok == 100 {
			return 0, boom
		}
		return int64(tok), nil
	})
	if !errors.Is(err, boom) || log != nil {
		t.Fatalf("Drive = %d ops, %v; want no log and the error", len(log), err)
	}
}

func TestStressValidation(t *testing.T) {
	g, err := dtree.New(2)
	if err != nil {
		t.Fatal(err)
	}
	n := compile(t, g, Options{})
	for _, cfg := range []StressConfig{
		{Net: nil, Workers: 1, Ops: 1},
		{Net: n, Workers: 0, Ops: 1},
		{Net: n, Workers: 1, Ops: 0},
		{Net: n, Workers: 1, Ops: 1, DelayedFrac: 2},
		{Net: n, Workers: 1, Ops: 1, Delay: -time.Second},
	} {
		if _, err := Stress(cfg); err == nil {
			t.Errorf("config accepted: %+v", cfg)
		}
	}
}

func TestStressWithInjectedDelays(t *testing.T) {
	g, err := dtree.New(8)
	if err != nil {
		t.Fatal(err)
	}
	n := compile(t, g, Options{Kind: KindMCS, Diffract: true})
	res, err := Stress(StressConfig{
		Net: n, Workers: 8, Ops: 1000,
		DelayedFrac: 0.25, Delay: 50 * time.Microsecond, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Violations may or may not occur (that is the paper's point); the
	// harness must still account for every operation.
	if res.Report.Total != 1000 {
		t.Fatalf("analyzed %d ops", res.Report.Total)
	}
}
