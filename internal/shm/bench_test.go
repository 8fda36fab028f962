package shm

import (
	"os"
	"testing"
	"time"

	"countnet/internal/bitonic"
	"countnet/internal/dtree"
)

func benchNetwork(b *testing.B, n *Network) {
	b.Helper()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n.Traverse(0)
		}
	})
}

func BenchmarkBitonic8(b *testing.B) {
	g, err := bitonic.New(8)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []Kind{KindAtomic, KindMutex, KindMCS} {
		n, err := Compile(g, Options{Kind: kind})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind.String(), func(b *testing.B) { benchNetwork(b, n) })
	}
}

func BenchmarkDTree32(b *testing.B) {
	g, err := dtree.New(32)
	if err != nil {
		b.Fatal(err)
	}
	for _, diffract := range []bool{false, true} {
		n, err := Compile(g, Options{Kind: KindMCS, Diffract: diffract, PrismWindow: 2 * time.Microsecond})
		if err != nil {
			b.Fatal(err)
		}
		name := "toggle"
		if diffract {
			name = "prism"
		}
		b.Run(name, func(b *testing.B) { benchNetwork(b, n) })
	}
}

// benchStressCell runs one full stress workload per iteration in the
// locked comparison cell for the combining funnel: 256 workers on a
// width-8 bitonic network with MCS toggles, every worker burning
// W=20µs of simulated per-node work that occupies its processor (the
// regime of the paper's Section 5 where contention dominates). The
// combined variant routes every token through the elimination funnel.
func benchStressCell(b *testing.B, combined bool) {
	g, err := bitonic.New(8)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n, err := Compile(g, Options{Kind: KindMCS})
		if err != nil {
			b.Fatal(err)
		}
		cfg := StressConfig{
			Net: n, Workers: 256, Ops: 16000, Seed: 1,
			DelayedFrac: 1, Delay: 20 * time.Microsecond, BurnDelay: true,
		}
		if combined {
			cfg.Combine = true
			cfg.CombineWidth = 32
			cfg.CombineWindow = 500 * time.Microsecond
		}
		b.StartTimer()
		res, err := Stress(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Throughput, "walkops/s")
		if combined {
			b.ReportMetric(res.Combine.HitRate(), "hitrate")
		}
	}
}

func BenchmarkStressBaseline(b *testing.B) { benchStressCell(b, false) }
func BenchmarkStressCombined(b *testing.B) { benchStressCell(b, true) }

// TestCombineIdleOverhead pins the funnel's fast-path cost: with a
// single worker every token takes the idle path (one atomic
// increment and check), so the combined engine must stay within 10% of
// the plain engine. Best-of-N wall times absorb scheduler noise, but a
// relative wall-clock comparison can still flake on an oversubscribed
// runner, so the threshold is only enforced under
// COUNTNET_STRICT_TIMING=1 (the workload itself always runs).
func TestCombineIdleOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	g, err := bitonic.New(8)
	if err != nil {
		t.Fatal(err)
	}
	const ops, runs = 100000, 5
	best := func(combined bool) time.Duration {
		bestD := time.Duration(1<<63 - 1)
		for r := 0; r < runs; r++ {
			n := compile(t, g, Options{Kind: KindMCS})
			res, err := Stress(StressConfig{Net: n, Workers: 1, Ops: ops, Seed: 1, Combine: combined})
			if err != nil {
				t.Fatal(err)
			}
			if res.Elapsed < bestD {
				bestD = res.Elapsed
			}
		}
		return bestD
	}
	base := best(false)
	comb := best(true)
	// 10% plus a small absolute allowance so a sub-millisecond baseline
	// cannot fail on clock granularity alone.
	limit := base + base/10 + 2*time.Millisecond
	if comb > limit {
		if os.Getenv("COUNTNET_STRICT_TIMING") == "" {
			t.Logf("combined idle path above limit (baseline %v, combined %v, limit %v); not failing without COUNTNET_STRICT_TIMING", base, comb, limit)
			return
		}
		t.Errorf("combined idle path too slow: baseline %v, combined %v (limit %v)", base, comb, limit)
	}
}

func BenchmarkBalancers(b *testing.B) {
	for _, kind := range []Kind{KindAtomic, KindMutex, KindMCS} {
		bal, err := NewBalancer(kind, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind.String(), func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					bal.Traverse()
				}
			})
		})
	}
	inner, err := NewBalancer(KindMCS, 2)
	if err != nil {
		b.Fatal(err)
	}
	d, err := NewDiffracting(inner, 8, 2*time.Microsecond)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("diffracting", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				d.Traverse()
			}
		})
	})
}
