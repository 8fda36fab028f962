package workload

import (
	"fmt"
	"time"

	"countnet/internal/shm"
	"countnet/internal/shm/adaptive"
	"countnet/internal/shm/combine"
)

// RealSpec is the wall-clock, real-goroutine analogue of Spec: the same
// benchmark (a fraction F of workers pauses W after every node) run on the
// shm runtime instead of the cycle simulator — extension experiment E13.
type RealSpec struct {
	Net         NetKind
	Width       int
	Workers     int
	Ops         int
	Frac        float64
	Delay       time.Duration
	RandomDelay bool
	Seed        int64
	// BurnDelay burns W as busy work occupying the simulated processor
	// (the model for coherence stalls) instead of a cooperative pause.
	BurnDelay bool
	// Combine routes tokens through the elimination/combining funnel in
	// front of the network (internal/shm/combine); CombineWidth and
	// CombineWindow configure it, zero values meaning the funnel
	// defaults.
	Combine       bool
	CombineWidth  int
	CombineWindow time.Duration
	// Adaptive routes tokens through the contention-adaptive front-end
	// (internal/shm/adaptive), which switches between a direct counter,
	// the combining funnel, and the full network as load changes.
	// Mutually exclusive with Combine (the adaptive engine owns its own
	// funnel). AdaptiveLinearizable enables its Corollary 3.12 padding.
	// AdaptiveLinearBelow forwards adaptive.Options.LinearBelow: when
	// positive, the front-end starts in — and below that occupancy stays
	// in — the guaranteed-linearizable ModeLinear waiting regime.
	Adaptive             bool
	AdaptiveLinearizable bool
	AdaptiveLinearBelow  int
}

// String names the spec compactly.
func (s RealSpec) String() string {
	tail := ""
	if s.RandomDelay {
		tail = "/random"
	}
	if s.BurnDelay {
		tail += "/burn"
	}
	if s.Combine {
		tail += "/combine"
	}
	if s.Adaptive {
		tail += "/adaptive"
		if s.AdaptiveLinearizable {
			tail += "+lin"
		}
		if s.AdaptiveLinearBelow > 0 {
			tail += "+wait"
		}
	}
	return fmt.Sprintf("%s%d/g=%d/W=%v/F=%.0f%%%s", s.Net, s.Width, s.Workers, s.Delay, 100*s.Frac, tail)
}

// Run compiles the network (diffracting prisms for the tree, as in the
// paper) and executes the stress benchmark.
func (s RealSpec) Run() (*shm.StressResult, error) {
	g, err := s.Net.Build(s.Width)
	if err != nil {
		return nil, err
	}
	n, err := shm.Compile(g, shm.Options{
		Kind:     shm.KindMCS,
		Diffract: s.Net == DTree,
	})
	if err != nil {
		return nil, err
	}
	cfg := shm.StressConfig{
		Net:         n,
		Workers:     s.Workers,
		Ops:         s.Ops,
		DelayedFrac: s.Frac,
		Delay:       s.Delay,
		RandomDelay: s.RandomDelay,
		BurnDelay:   s.BurnDelay,
		Seed:        s.Seed,
	}
	switch {
	case s.Adaptive && s.Combine:
		return nil, fmt.Errorf("workload: Adaptive and Combine are mutually exclusive")
	case s.Combine:
		cfg.Front = combine.Front{Funnel: combine.New(combine.Options{
			Width:  s.CombineWidth,
			Window: s.CombineWindow,
		}), Net: n}
	case s.Adaptive:
		front, err := adaptive.New(n, adaptive.Options{
			Linearizable:  s.AdaptiveLinearizable,
			LinearBelow:   s.AdaptiveLinearBelow,
			CombineWidth:  s.CombineWidth,
			CombineWindow: s.CombineWindow,
			EffWait:       cfg.EffWait(),
		})
		if err != nil {
			return nil, err
		}
		cfg.Front = front
	}
	return shm.Stress(cfg)
}

// RealGridWorkers is the goroutine-count axis of the real grid.
var RealGridWorkers = []int{4, 16, 64}

// RealGridDelays is the W axis of the real grid.
var RealGridDelays = []time.Duration{0, 50 * time.Microsecond, 500 * time.Microsecond}

// RealGrid returns the wall-clock benchmark grid at the given delayed
// fraction.
func RealGrid(frac float64, ops int, seed int64) []RealSpec {
	var specs []RealSpec
	for _, net := range []NetKind{Bitonic, DTree} {
		for _, d := range RealGridDelays {
			for _, workers := range RealGridWorkers {
				specs = append(specs, RealSpec{
					Net:     net,
					Width:   PaperWidth,
					Workers: workers,
					Ops:     ops,
					Frac:    frac,
					Delay:   d,
					Seed:    seed,
				})
			}
		}
	}
	return specs
}
