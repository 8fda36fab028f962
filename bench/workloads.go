package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"countnet"
	"countnet/internal/shm"
	"countnet/internal/shm/adaptive"
	"countnet/internal/shm/backoff"
)

// anomalyW is the Section 5 per-node pause of the anomaly workload's
// delayed client; with one of two clients delayed (F = 0.5) the
// effective W of the (Tog+W)/Tog estimate is half of it.
const anomalyW = time.Microsecond

// workload is one closed-loop input set of the benchmark; BENCHMARK.json
// says why each was chosen.
type workload struct {
	name string
	// build constructs a fresh counter: the work setup_s times.
	build func() (counter, error)
}

// counter is one built workload counter. op is the untraced call each
// client makes; traced is the same call with the tracer's per-node hook.
// inputs are the seeded per-client input wires, filled before timing.
type counter struct {
	op     func(in *inputs) opFunc
	traced func(in *inputs, tr *[clients]*tracer) opFunc
	// ad is the adaptive front-end, nil for plain countnet counters; want
	// and minShare are the regime assertion on its Stats().PerMode.
	ad       *adaptive.Counter
	want     adaptive.Mode
	minShare float64
}

// inputs are each client's pre-generated input-wire sequence.
type inputs [clients][]uint8

func newInputs(seed int64, perClient, width int) *inputs {
	var in inputs
	rng := rand.New(rand.NewSource(seed))
	for c := range in {
		in[c] = make([]uint8, perClient)
		for i := range in[c] {
			in[c][i] = uint8(rng.Intn(width))
		}
	}
	return &in
}

var workloads = []workload{
	{
		name: "net-hot",
		build: func() (counter, error) {
			t, err := countnet.BitonicTopology(8)
			if err != nil {
				return counter{}, err
			}
			ctr, err := countnet.NewCounter(t)
			if err != nil {
				return counter{}, err
			}
			var cursor atomic.Int64
			return counter{
				op: func(*inputs) opFunc {
					return func(int, int) int64 { return ctr.Next() }
				},
				// NextInstrumented takes its input explicitly, so the traced
				// call draws it from a cursor shaped like Next's own.
				traced: func(_ *inputs, tr *[clients]*tracer) opFunc {
					return func(c, _ int) int64 {
						in := int((cursor.Add(1) - 1) % 8)
						v, _ := ctr.NextInstrumented(in, tr[c].hook)
						return v
					}
				},
			}, nil
		},
	},
	{
		name:  "adaptive-direct",
		build: adaptiveBuild(adaptive.Options{}, adaptive.ModeDirect, 0.99),
	},
	{
		name: "linear",
		build: adaptiveBuild(adaptive.Options{LinearBelow: 1 << 20, Window: 1 << 30},
			adaptive.ModeLinear, 1),
	},
	{
		name: "anomaly",
		build: func() (counter, error) {
			t, err := countnet.TreeTopology(32)
			if err != nil {
				return counter{}, err
			}
			ctr, err := countnet.NewCounter(t)
			if err != nil {
				return counter{}, err
			}
			pause := func() { backoff.Pause(anomalyW) }
			return counter{
				op: func(*inputs) opFunc {
					return func(c, _ int) int64 {
						if c == 0 {
							v, _ := ctr.NextInstrumented(0, pause)
							return v
						}
						v, _ := ctr.NextAt(0)
						return v
					}
				},
				traced: func(_ *inputs, tr *[clients]*tracer) opFunc {
					slow := func() { tr[0].hook(); backoff.Pause(anomalyW) }
					return func(c, _ int) int64 {
						hook := tr[c].hook
						if c == 0 {
							hook = slow
						}
						v, _ := ctr.NextInstrumented(0, hook)
						return v
					}
				},
			}, nil
		},
	},
}

// adaptiveBuild returns the build of an adaptive workload over a fresh
// bitonic[8] MCS network, asserting that at least minShare of its tokens
// are served in mode want.
func adaptiveBuild(opts adaptive.Options, want adaptive.Mode, minShare float64) func() (counter, error) {
	return func() (counter, error) {
		t, err := countnet.BitonicTopology(8)
		if err != nil {
			return counter{}, err
		}
		net, err := shm.Compile(t.Graph(), shm.Options{})
		if err != nil {
			return counter{}, err
		}
		ad, err := adaptive.New(net, opts)
		if err != nil {
			return counter{}, err
		}
		return counter{
			op: func(in *inputs) opFunc {
				return func(c, i int) int64 {
					return ad.Next(int(in[c][i]), int32(c), int32(i), nil)
				}
			},
			traced: func(in *inputs, tr *[clients]*tracer) opFunc {
				return func(c, i int) int64 {
					return ad.Next(int(in[c][i]), int32(c), int32(i), tr[c].hookID)
				}
			},
			ad: ad, want: want, minShare: minShare,
		}, nil
	}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// modeShare returns the share of the counter's tokens served in its
// asserted regime, 1 for plain network counters, and the token count
// outside it.
func (k counter) modeShare() (share float64, outside int64) {
	if k.ad == nil {
		return 1, 0
	}
	st := k.ad.Stats()
	if st.Tokens == 0 {
		return 1, 0
	}
	in := st.PerMode[k.want]
	return float64(in) / float64(st.Tokens), st.Tokens - in
}
