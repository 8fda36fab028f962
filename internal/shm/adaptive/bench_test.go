package adaptive_test

import (
	"fmt"
	"testing"

	"countnet/internal/bitonic"
	"countnet/internal/shm"
	"countnet/internal/shm/adaptive"
	"countnet/internal/shm/combine"
)

// BenchmarkAdaptiveLinear quantifies the serialization cliff of the
// guaranteed-linearizable waiting mode (EXPERIMENTS.md E27, E33): the same
// 4096-token width-8 workload with the front-end built in ModeLinear,
// which it never leaves, against the bare network as the no-guarantee
// baseline. The waiting construction serializes responses — token v+1
// cannot return before token v — so past the point where the network
// itself stops scaling, added workers only deepen the release chain.
func BenchmarkAdaptiveLinear(b *testing.B) {
	g, err := bitonic.New(8)
	if err != nil {
		b.Fatal(err)
	}
	const ops = 4096
	for _, workers := range []int{1, 8, 32, 128, 256} {
		for _, eng := range []string{"network", "linear"} {
			b.Run(fmt.Sprintf("%s/p%d", eng, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					n, err := shm.Compile(g, shm.Options{Kind: shm.KindMCS})
					if err != nil {
						b.Fatal(err)
					}
					cfg := shm.StressConfig{Net: n, Workers: workers, Ops: ops, Seed: 1}
					if eng == "linear" {
						front, err := adaptive.New(n, adaptive.Options{LinearBelow: 1})
						if err != nil {
							b.Fatal(err)
						}
						cfg.Front = front
					}
					b.StartTimer()
					if _, err := shm.Stress(cfg); err != nil {
						b.Fatal(err)
					}
				}
				// Over the whole timed run, so the rate agrees with ns/op
				// even on a cell whose iterations vary widely.
				b.ReportMetric(float64(b.N*ops)/b.Elapsed().Seconds(), "walkops/s")
			})
		}
	}
}

// BenchmarkAdaptive is the worker sweep behind EXPERIMENTS.md E25 and
// E32: the same fixed workload — 4096 tokens through a width-8 bitonic
// network — driven by worker counts from 1 to 256 through the combining
// funnel, the full network and the adaptive front in its default
// ModeDirect (one fetch-and-add on a padded word), all via the identical
// shm.Stress driver. The direct fetch-and-add beat the funnel and the
// network at every worker count, which is why the adaptive front has no
// mode that escalates into them.
func BenchmarkAdaptive(b *testing.B) {
	g, err := bitonic.New(8)
	if err != nil {
		b.Fatal(err)
	}
	const ops = 4096
	engines := []string{"combine", "network", "adaptive"}
	for _, workers := range []int{1, 8, 32, 128, 256} {
		for _, eng := range engines {
			b.Run(fmt.Sprintf("%s/p%d", eng, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					n, err := shm.Compile(g, shm.Options{Kind: shm.KindMCS})
					if err != nil {
						b.Fatal(err)
					}
					cfg := shm.StressConfig{Net: n, Workers: workers, Ops: ops, Seed: 1}
					switch eng {
					case "combine":
						cfg.Front = combine.Front{Funnel: combine.New(combine.Options{}), Net: n}
					case "adaptive":
						front, err := adaptive.New(n, adaptive.Options{})
						if err != nil {
							b.Fatal(err)
						}
						cfg.Front = front
					}
					b.StartTimer()
					if _, err := shm.Stress(cfg); err != nil {
						b.Fatal(err)
					}
				}
				// Over the whole timed run, so the rate agrees with ns/op
				// even on a cell whose iterations vary widely.
				b.ReportMetric(float64(b.N*ops)/b.Elapsed().Seconds(), "walkops/s")
			})
		}
	}
}
