package countnet

// Benchmark harness for the paper's evaluation (Section 5) and the repo's
// ablations. One benchmark family per table/figure:
//
//	BenchmarkFig5NonLinRatio    Figure 5: non-linearizability ratio, F=25%
//	BenchmarkFig6NonLinRatio    Figure 6: non-linearizability ratio, F=50%
//	BenchmarkFig7AvgRatio       Figure 7: average c2/c1 = (Tog+W)/Tog
//	BenchmarkControls           Section 5 controls (zero-violation runs)
//
// Each reports the paper's measured quantity as a custom metric
// (violation percentage `viol%`, average ratio `c2/c1`) alongside the
// simulation cost. The cmd/figures tool prints the same grids as
// paper-shaped tables at full 5000-op scale.
//
// Extension and ablation benches:
//
//	BenchmarkThroughput         real goroutines: networks vs point counters
//	BenchmarkAblationPrism      diffraction on/off on the tree
//	BenchmarkAblationMemory     memory-interference model on/off
//	BenchmarkAblationPadding    Corollary 3.12 padding under an adversary
//	BenchmarkLincheckAlgorithms sweep vs quadratic oracle
//	BenchmarkScheduleEngine     timed executor event throughput
//	BenchmarkConstruct          network construction cost
//	BenchmarkBuildCounter       bitonic[8], tree[32], periodic[8] counter build: graph vs Compile

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"countnet/internal/lincheck"
	"countnet/internal/schedule"
	"countnet/internal/sim"
	"countnet/internal/topo"
	"countnet/internal/workload"
)

// benchOps keeps one simulated iteration around 50-300ms; cmd/figures runs
// the paper's full 5000.
const benchOps = 1500

// figureBench runs the Figures 5/6 grid at the given delayed fraction.
func figureBench(b *testing.B, frac float64) {
	for _, net := range []workload.NetKind{workload.Bitonic, workload.DTree} {
		for _, wait := range workload.PaperWaits {
			for _, n := range workload.PaperProcs {
				spec := workload.Spec{
					Net: net, Width: workload.PaperWidth,
					Procs: n, Ops: benchOps, Frac: frac, Wait: wait, Seed: 1,
				}
				b.Run(fmt.Sprintf("%s/W=%d/n=%d", net, wait, n), func(b *testing.B) {
					var lastRatio float64
					for i := 0; i < b.N; i++ {
						res, err := spec.Run()
						if err != nil {
							b.Fatal(err)
						}
						lastRatio = res.Report.Ratio()
					}
					b.ReportMetric(100*lastRatio, "viol%")
				})
			}
		}
	}
}

func BenchmarkFig5NonLinRatio(b *testing.B) { figureBench(b, 0.25) }

func BenchmarkFig6NonLinRatio(b *testing.B) { figureBench(b, 0.50) }

func BenchmarkFig7AvgRatio(b *testing.B) {
	for _, net := range []workload.NetKind{workload.Bitonic, workload.DTree} {
		for _, frac := range workload.PaperFracs {
			for _, wait := range workload.PaperWaits {
				for _, n := range workload.PaperProcs {
					spec := workload.Spec{
						Net: net, Width: workload.PaperWidth,
						Procs: n, Ops: benchOps, Frac: frac, Wait: wait, Seed: 1,
					}
					b.Run(fmt.Sprintf("%s/F=%.0f%%/W=%d/n=%d", net, 100*frac, wait, n), func(b *testing.B) {
						var ratio float64
						for i := 0; i < b.N; i++ {
							res, err := spec.Run()
							if err != nil {
								b.Fatal(err)
							}
							ratio = res.AvgRatio
						}
						b.ReportMetric(ratio, "c2/c1")
					})
				}
			}
		}
	}
}

func BenchmarkControls(b *testing.B) {
	for _, spec := range workload.ControlGrid(1) {
		spec.Ops = benchOps
		b.Run(spec.String(), func(b *testing.B) {
			var viol int
			for i := 0; i < b.N; i++ {
				res, err := spec.Run()
				if err != nil {
					b.Fatal(err)
				}
				viol = res.Report.NonLinearizable
			}
			b.ReportMetric(float64(viol), "violations")
		})
	}
}

// BenchmarkThroughput compares real-goroutine shared counters: counting
// networks against single-point counters (the networks win once the point
// counter saturates; extension experiment E13).
func BenchmarkThroughput(b *testing.B) {
	mk := func(name string, next func() int64) {
		b.Run(name, func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					next()
				}
			})
		})
	}
	bt, err := BitonicTopology(32)
	if err != nil {
		b.Fatal(err)
	}
	b8, err := BitonicTopology(8)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := TreeTopology(32)
	if err != nil {
		b.Fatal(err)
	}
	bc, err := NewCounter(bt)
	if err != nil {
		b.Fatal(err)
	}
	ba, err := NewCounter(bt, WithBalancer(Atomic))
	if err != nil {
		b.Fatal(err)
	}
	dt, err := NewCounter(tr, WithDiffraction(8, 2*time.Microsecond))
	if err != nil {
		b.Fatal(err)
	}
	dm, err := NewCounter(tr)
	if err != nil {
		b.Fatal(err)
	}
	b8c, err := NewCounter(b8)
	if err != nil {
		b.Fatal(err)
	}
	// bitonic8/mcs is the net-hot topology of bench/ (E36).
	mk("bitonic8/mcs", b8c.Next)
	mk("bitonic32/mcs", bc.Next)
	mk("bitonic32/atomic", ba.Next)
	mk("dtree32/prism", dt.Next)
	mk("dtree32/mcs", dm.Next)

	var mu sync.Mutex
	var c int64
	mk("mutex-counter", func() int64 {
		mu.Lock()
		c++
		v := c
		mu.Unlock()
		return v
	})
}

// BenchmarkAblationPrism isolates the diffraction design choice at full
// contention (256 processors funneling into the tree's single root, no
// injected delays): without prisms every token serializes through the root
// toggle's queue, so the simulated makespan per operation explodes; with
// prisms pairs collide and leave without touching the toggle. Tog alone
// understates this (it averages over all nodes), so the makespan is the
// headline metric.
func BenchmarkAblationPrism(b *testing.B) {
	for _, diffract := range []bool{true, false} {
		b.Run(fmt.Sprintf("diffract=%v", diffract), func(b *testing.B) {
			var tog, cyclesPerOp float64
			for i := 0; i < b.N; i++ {
				g, err := workload.DTree.Build(32)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(sim.Config{
					Net: g, Procs: 256, Ops: benchOps,
					Diffract: diffract, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				tog = res.Tog
				cyclesPerOp = float64(res.Cycles) / float64(len(res.Ops))
			}
			b.ReportMetric(tog, "Tog")
			b.ReportMetric(cyclesPerOp, "simCycles/op")
		})
	}
}

// BenchmarkAblationAdmission compares FIFO (MCS) node admission with a
// barging lock — the implementation choice the paper calls out ("to reduce
// contention on the nodes which would have attenuated the influence of the
// W-waiting periods").
func BenchmarkAblationAdmission(b *testing.B) {
	for _, unfair := range []bool{false, true} {
		name := "fifo-mcs"
		if unfair {
			name = "barging"
		}
		b.Run(name, func(b *testing.B) {
			m := sim.DefaultMachine()
			m.UnfairLocks = unfair
			var p99 int64
			var viol float64
			for i := 0; i < b.N; i++ {
				g, err := workload.Bitonic.Build(32)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(sim.Config{
					Net: g, Procs: 128, Ops: benchOps,
					DelayedFrac: 0.25, Wait: 10000, Seed: 1, Machine: m,
				})
				if err != nil {
					b.Fatal(err)
				}
				p99 = res.Latency.P99
				viol = 100 * res.Report.Ratio()
			}
			b.ReportMetric(float64(p99), "p99-cycles")
			b.ReportMetric(viol, "viol%")
		})
	}
}

// BenchmarkAblationMemory isolates the global memory-interference term of
// the machine model (the knob that reproduces Figure 7's Tog growth).
func BenchmarkAblationMemory(b *testing.B) {
	for _, memCycles := range []int64{0, 380} {
		b.Run(fmt.Sprintf("memCycles=%d", memCycles), func(b *testing.B) {
			m := sim.DefaultMachine()
			m.MemCycles = memCycles
			var tog float64
			for i := 0; i < b.N; i++ {
				g, err := workload.Bitonic.Build(32)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(sim.Config{
					Net: g, Procs: 256, Ops: benchOps,
					DelayedFrac: 0.25, Wait: 100, Seed: 1, Machine: m,
				})
				if err != nil {
					b.Fatal(err)
				}
				tog = res.Tog
			}
			b.ReportMetric(tog, "Tog")
		})
	}
}

// BenchmarkAblationPadding measures the Corollary 3.12 trade: violations
// drop to zero on the padded network while the depth (and so latency) grows.
func BenchmarkAblationPadding(b *testing.B) {
	sc, err := schedule.Tree(8)
	if err != nil {
		b.Fatal(err)
	}
	padded, err := topo.Pad(sc.Graph, sc.Graph.Depth()*(3-2)) // k = 3 covers c2 = 2.5*c1
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		g    *topo.Graph
	}{{"bare", sc.Graph}, {"padded", padded}} {
		b.Run(cfg.name, func(b *testing.B) {
			var viol int
			for i := 0; i < b.N; i++ {
				res, err := schedule.Run(cfg.g, sc.Arrive, sc.Delays, schedule.Options{})
				if err != nil {
					b.Fatal(err)
				}
				viol = res.Report().NonLinearizable
			}
			b.ReportMetric(float64(viol), "violations")
		})
	}
}

// BenchmarkLincheckAlgorithms compares the O(n log n) sweep with the
// quadratic oracle.
func BenchmarkLincheckAlgorithms(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ops := make([]lincheck.Op, 3000)
	for i := range ops {
		s := int64(rng.Intn(100000))
		ops[i] = lincheck.Op{Start: s, End: s + int64(rng.Intn(3000)), Value: int64(rng.Intn(50000))}
	}
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lincheck.Analyze(ops)
		}
	})
	b.Run("brute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lincheck.AnalyzeBrute(ops)
		}
	})
}

// BenchmarkScheduleEngine measures the timed executor itself.
func BenchmarkScheduleEngine(b *testing.B) {
	g, err := workload.Bitonic.Build(32)
	if err != nil {
		b.Fatal(err)
	}
	arr := make([]schedule.Arrival, 2000)
	for k := range arr {
		arr[k] = schedule.Arrival{Time: int64(k % 499), Input: k % 32}
	}
	d := schedule.UniformRandom(10, 20, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schedule.Run(g, arr, d, schedule.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConstruct measures building the networks themselves.
func BenchmarkConstruct(b *testing.B) {
	for _, kind := range []workload.NetKind{workload.Bitonic, workload.Periodic, workload.DTree} {
		for _, w := range []int{32, 256} {
			b.Run(fmt.Sprintf("%s/%d", kind, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := kind.Build(w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBuildCounter times the whole build the bench workloads' setup_s
// times, a topology then NewCounter, and its two halves, on the bitonic[8]
// and tree[32] networks the workloads use and on periodic[8], the third
// constructor: "graph" is the topology alone and "compile" is NewCounter
// over a prebuilt topology, so the split between graph construction and
// Compile reads directly. Each row also reports the median and the minimum
// of its batches' mean times (timeBuilds): on a shared host one disturbed
// stretch moves the b.N mean of a few-microsecond build by as much as a
// build change does.
func BenchmarkBuildCounter(b *testing.B) {
	for _, net := range []struct {
		name  string
		build func() (Topology, error)
	}{
		{"bitonic8", func() (Topology, error) { return BitonicTopology(8) }},
		{"tree32", func() (Topology, error) { return TreeTopology(32) }},
		{"periodic8", func() (Topology, error) { return PeriodicTopology(8) }},
	} {
		b.Run(net.name+"/full", func(b *testing.B) {
			b.ReportAllocs()
			timeBuilds(b, func() error {
				tp, err := net.build()
				if err != nil {
					return err
				}
				_, err = NewCounter(tp)
				return err
			})
		})
		b.Run(net.name+"/graph", func(b *testing.B) {
			b.ReportAllocs()
			timeBuilds(b, func() error {
				_, err := net.build()
				return err
			})
		})
		b.Run(net.name+"/compile", func(b *testing.B) {
			tp, err := net.build()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			timeBuilds(b, func() error {
				_, err := NewCounter(tp)
				return err
			})
		})
	}
}

// buildBatch is how many builds one timed batch of BenchmarkBuildCounter
// makes: a few tens of microseconds, so a 100-build run has ten batches.
const buildBatch = 10

// timeBuilds makes b.N builds in batches of buildBatch and reports the
// median and the minimum of the full batches' mean times per build, or the
// one partial batch's when there is no full one; the minimum is the cost
// of an undisturbed batch.
func timeBuilds(b *testing.B, build func() error) {
	var ns []float64
	for done := 0; done < b.N; {
		k := min(buildBatch, b.N-done)
		t0 := time.Now()
		for range k {
			if err := build(); err != nil {
				b.Fatal(err)
			}
		}
		if k == buildBatch || len(ns) == 0 {
			ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(k))
		}
		done += k
	}
	slices.Sort(ns)
	b.ReportMetric(ns[len(ns)/2], "median-ns/op")
	b.ReportMetric(ns[0], "min-ns/op")
}

// BenchmarkLinearizableFilter quantifies the price of guaranteed
// linearizability (the Herlihy-Shavit-Waarts-style waiting filter) against
// the bare counting network — the trade-off at the heart of the paper.
func BenchmarkLinearizableFilter(b *testing.B) {
	tp, err := TreeTopology(32)
	if err != nil {
		b.Fatal(err)
	}
	bare, err := NewCounter(tp, WithDiffraction(8, 2*time.Microsecond))
	if err != nil {
		b.Fatal(err)
	}
	filtered, err := NewLinearizableCounter(tp, WithDiffraction(8, 2*time.Microsecond))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("bare", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				bare.Next()
			}
		})
	})
	b.Run("filtered", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				filtered.Next()
			}
		})
	})
}
