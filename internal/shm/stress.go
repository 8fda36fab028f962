package shm

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"countnet/internal/core"
	"countnet/internal/lincheck"
	"countnet/internal/obs"
	"countnet/internal/shm/backoff"
	"countnet/internal/shm/combine"
	"countnet/internal/topo"
)

// StressConfig drives a real-goroutine run of the Section 5 benchmark: a
// pool of workers traverses the network until Ops operations complete; a
// fraction of the workers pauses Delay after every node, and every
// operation is timestamped for linearizability analysis.
type StressConfig struct {
	Net     *Network
	Workers int
	Ops     int
	// DelayedFrac is the fraction of workers that pause Delay after each
	// node (the paper's F).
	DelayedFrac float64
	// Delay is the paper's W, as wall-clock time.
	Delay time.Duration
	// RandomDelay makes every worker pause uniform [0, Delay] instead.
	RandomDelay bool
	// BurnDelay burns each delay as busy work that occupies the
	// simulated processor — the model for per-node costs that hold the
	// hardware, like cache-coherence stalls or spinning in a lock queue
	// — instead of the default cooperative pause, which models delays a
	// descheduled process doesn't charge to anyone else. Combining
	// amortizes burned delays across a combined walk exactly as it
	// amortizes real contention.
	BurnDelay bool
	// Seed drives random delays and worker input choice.
	Seed int64
	// Combine enables the elimination/combining funnel in front of the
	// network: concurrent workers rendezvous in an exchanger array and a
	// paired pair sends one representative through the balancers with
	// demand 2, halving concurrent traversals under contention while
	// preserving exact counting (see internal/shm/combine).
	Combine bool
	// CombineWidth is the funnel's exchanger slot count (default
	// combine.DefaultWidth).
	CombineWidth int
	// CombineWindow is how long a token camps for a partner before
	// traversing alone (default combine.DefaultWindow).
	CombineWindow time.Duration
	// Front, when non-nil, is a pluggable counting front-end the workers
	// route every operation through instead of traversing Net directly
	// (the contention-adaptive engine in internal/shm/adaptive is one).
	// Net stays required: it is the front-end's backend and still
	// supplies input width and observability. Mutually exclusive with
	// Combine, which is a specific front-end wired inline.
	Front Front
	// Tracer, when non-nil, receives per-token enter/balancer/counter/exit
	// events on the run's monotonic timeline.
	Tracer obs.Tracer
	// Metrics, when non-nil, receives the live shm metric family (toggle
	// wait histogram, (Tog+W)/Tog ratio, per-balancer depth gauges, prism
	// CAS retries).
	Metrics *obs.Registry
}

// Front is a pluggable counting front-end for the stress driver: Next
// draws one value for the token (proc, tok) entering at the given input
// wire, invoking afterNode per visited node exactly like TraverseObs,
// and the values handed out across a run must form the same gapless
// sequence a direct traversal would produce. Defined here — not in the
// front-end's own package — so shm never imports its front-ends.
type Front interface {
	Next(input int, proc, tok int32, afterNode func(id topo.NodeID)) int64
}

// EffWait returns the effective injected per-node delay in nanoseconds —
// the W of the (Tog+W)/Tog measure — mirroring the simulator's convention:
// the configured Delay, halved under RandomDelay (uniform mean), zero when
// no worker is delayed.
func (cfg StressConfig) EffWait() float64 {
	switch {
	case cfg.Delay <= 0:
		return 0
	case cfg.RandomDelay:
		return float64(cfg.Delay) / 2
	case cfg.DelayedFrac == 0:
		return 0
	default:
		return float64(cfg.Delay)
	}
}

// StressResult reports a stress run.
type StressResult struct {
	Ops        []lincheck.Op
	Report     lincheck.Report
	Elapsed    time.Duration
	Throughput float64 // operations per second
	// Tog is the measured average toggle wait in nanoseconds and AvgRatio
	// the paper's (Tog+W)/Tog; both zero unless Metrics was set.
	Tog      float64
	AvgRatio float64
	// Combine is the funnel's counter snapshot, nil unless the run was
	// configured with Combine.
	Combine *combine.Stats
}

// Stress runs the benchmark. Operation timestamps come from the monotonic
// clock, so "completely precedes" has its real-time meaning.
func Stress(cfg StressConfig) (*StressResult, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("shm: nil network")
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("shm: %d workers", cfg.Workers)
	}
	if cfg.Ops < 1 {
		return nil, fmt.Errorf("shm: %d ops", cfg.Ops)
	}
	if cfg.DelayedFrac < 0 || cfg.DelayedFrac > 1 {
		return nil, fmt.Errorf("shm: delayed fraction %f", cfg.DelayedFrac)
	}
	if cfg.Delay < 0 {
		return nil, fmt.Errorf("shm: negative delay")
	}
	if cfg.Front != nil && cfg.Combine {
		return nil, fmt.Errorf("shm: Front and Combine are mutually exclusive")
	}
	rec := lincheck.NewRecorder(cfg.Ops)
	var remaining atomic.Int64
	remaining.Store(int64(cfg.Ops))
	base := time.Now()
	clock := func() int64 { return int64(time.Since(base)) }
	cfg.Net.EnableObs(cfg.Tracer, cfg.Metrics, clock, cfg.EffWait())
	spanClock := cfg.Net.SpanClock() // non-nil exactly when tracing is on
	var funnel *combine.Funnel
	if cfg.Combine {
		funnel = combine.New(combine.Options{
			Width:   cfg.CombineWidth,
			Window:  cfg.CombineWindow,
			Metrics: cfg.Metrics,
		})
	}
	nd := int(cfg.DelayedFrac * float64(cfg.Workers))
	var wg sync.WaitGroup
	for wkr := 0; wkr < cfg.Workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(wkr)*0x9e3779b9))
			input := wkr % cfg.Net.InWidth()
			delayed := wkr < nd
			wait := pause
			if cfg.BurnDelay {
				wait = backoff.Burn
			}
			var hook func(topo.NodeID)
			switch {
			case cfg.RandomDelay && cfg.Delay > 0:
				hook = func(topo.NodeID) { wait(time.Duration(rng.Int63n(int64(cfg.Delay) + 1))) }
			case delayed && cfg.Delay > 0:
				hook = func(topo.NodeID) { wait(cfg.Delay) }
			}
			var tok int32
			trav := func(demand int) []int64 {
				return cfg.Net.TraverseBatch(input, demand, int32(wkr), tok, hook)
			}
			for {
				rem := remaining.Add(-1)
				if rem < 0 {
					return
				}
				tok = int32(int64(cfg.Ops) - 1 - rem)
				start := clock()
				var parent uint64
				if cfg.Tracer != nil {
					if spanClock != nil {
						parent = spanClock.Tick()
					}
					cfg.Tracer.Record(obs.Event{T: start, Kind: obs.KindEnter,
						P: int32(wkr), Tok: tok, Node: -1, Value: -1, Span: parent})
				}
				var v int64
				// last is the exit event's causal parent: the counter hop
				// when this worker traversed itself, the enter event when a
				// front-end or funnel combiner traversed on its behalf.
				last := parent
				switch {
				case cfg.Front != nil:
					v = cfg.Front.Next(input, int32(wkr), tok, hook)
				case funnel != nil:
					v = funnel.Do(1, trav)[0]
				default:
					v, last = cfg.Net.TraverseSpan(input, int32(wkr), tok, parent, hook)
				}
				end := clock()
				if cfg.Tracer != nil {
					ev := obs.Event{T: end, Dur: end - start, Kind: obs.KindExit,
						P: int32(wkr), Tok: tok, Node: -1, Value: v}
					if spanClock != nil {
						ev.Span = spanClock.Tick()
						ev.Parent = last
					}
					cfg.Tracer.Record(ev)
				}
				rec.Record(start, end, v)
			}
		}(wkr)
	}
	wg.Wait()
	elapsed := time.Since(base)
	res := &StressResult{
		Ops:     rec.Ops(),
		Report:  rec.Analyze(),
		Elapsed: elapsed,
	}
	if elapsed > 0 {
		res.Throughput = float64(len(res.Ops)) / elapsed.Seconds()
	}
	if r := cfg.Net.Ratio(); r != nil {
		res.Tog = r.Tog()
		res.AvgRatio = core.AvgRatio(res.Tog, cfg.EffWait())
	}
	if funnel != nil {
		st := funnel.Stats()
		res.Combine = &st
	}
	return res, nil
}

// pause delays the calling goroutine for d: short pauses poll (keeping
// microsecond precision), long ones sleep. The escalation policy is the
// shared backoff helper's, the same one combine slots use.
func pause(d time.Duration) { backoff.Pause(d) }
