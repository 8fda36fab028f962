package workload

import (
	"fmt"
	"time"

	"countnet/internal/shm"
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
	// Front names the front-end that hands each token its value; the
	// zero value is the plain network.
	Front FrontKind
}

// String names the spec compactly, ending in the front-end's name when
// one is set.
func (s RealSpec) String() string {
	tail := ""
	if s.RandomDelay {
		tail = "/random"
	}
	if s.BurnDelay {
		tail += "/burn"
	}
	if s.Front != "" {
		tail += "/" + string(s.Front)
	}
	return fmt.Sprintf("%s%d/g=%d/W=%v/F=%.0f%%%s", s.Net, s.Width, s.Workers, s.Delay, 100*s.Frac, tail)
}

// Run compiles the network (diffracting prisms for the tree, as in the
// paper) and executes the stress benchmark behind the spec's front-end.
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
	if cfg.Front, err = s.Front.Build(n, nil); err != nil {
		return nil, err
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
