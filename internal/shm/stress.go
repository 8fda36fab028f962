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
	"countnet/internal/topo"
)

// StressConfig drives a real-goroutine run of the Section 5 benchmark: a
// pool of workers draws values until Ops operations complete; a fraction
// of the workers pauses Delay after every node, and every operation is
// timestamped for linearizability analysis.
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
	// Seed drives random delays.
	Seed int64
	// Front is the counting front-end the workers route every operation
	// through; nil means Net itself. The combining funnel (combine.Front),
	// the waiting Filter and the fixed-mode adaptive front
	// (adaptive.Counter) are the others in this repo. Net stays required: it supplies input width and
	// observability.
	Front Front
	// Tracer, when non-nil, receives per-token enter/balancer/counter/exit
	// events on the run's monotonic timeline.
	Tracer obs.Tracer
	// Metrics, when non-nil, receives the live shm metric family (toggle
	// wait histogram, (Tog+W)/Tog ratio, output fetch-and-add count, prism
	// CAS retries).
	Metrics *obs.Registry
}

// Front is a pluggable counting front-end for the stress driver, with the
// shape of (*Network).TraverseSpan, so the bare network is one:
// TraverseSpan draws one value for the token (proc, tok) entering at the
// given input wire, invokes afterNode per visited node, chains every hop
// it traces onto parent, and returns the value with the span the token's
// exit chains onto. The values handed out across a run must form the same
// gapless sequence a direct traversal would produce. Defined here — not
// in the front-end's own package — so shm never imports its front-ends.
type Front interface {
	TraverseSpan(input int, proc, tok int32, parent uint64, afterNode func(id topo.NodeID)) (int64, uint64)
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
}

// Stress runs the benchmark on Drive. Operation timestamps come from the
// monotonic clock, so "completely precedes" has its real-time meaning.
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
	base := time.Now()
	clock := func() int64 { return int64(time.Since(base)) }
	cfg.Net.EnableObs(cfg.Tracer, cfg.Metrics, clock, cfg.EffWait())
	tr, spans := cfg.Tracer, cfg.Net.SpanClock() // both nil, or both set
	wait := pause
	if cfg.BurnDelay {
		wait = backoff.Burn
	}
	front := cfg.Front
	if front == nil {
		front = cfg.Net
	}
	nd := int(cfg.DelayedFrac * float64(cfg.Workers))
	hooks := make([]func(topo.NodeID), cfg.Workers)
	for wkr := range hooks {
		switch {
		case cfg.RandomDelay && cfg.Delay > 0:
			rng := rand.New(rand.NewSource(cfg.Seed + int64(wkr)*0x9e3779b9))
			hooks[wkr] = func(topo.NodeID) { wait(time.Duration(rng.Int63n(int64(cfg.Delay) + 1))) }
		case wkr < nd && cfg.Delay > 0:
			hooks[wkr] = func(topo.NodeID) { wait(cfg.Delay) }
		}
	}
	next := func(proc, tok int32) (int64, error) {
		input, hook := int(proc)%cfg.Net.InWidth(), hooks[proc]
		var start int64
		var parent uint64
		if tr != nil && spans != nil {
			start, parent = clock(), spans.Tick()
			tr.Record(obs.Event{T: start, Kind: obs.KindEnter,
				P: proc, Tok: tok, Node: -1, Value: -1, Span: parent})
		}
		v, last := front.TraverseSpan(input, proc, tok, parent, hook)
		if tr != nil && spans != nil {
			end := clock()
			tr.Record(obs.Event{T: end, Dur: end - start, Kind: obs.KindExit,
				P: proc, Tok: tok, Node: -1, Value: v, Span: spans.Tick(), Parent: last})
		}
		return v, nil
	}
	ops, err := Drive(base, cfg.Workers, cfg.Ops, next)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(base)
	res := &StressResult{
		Ops:     ops,
		Report:  lincheck.Analyze(ops),
		Elapsed: elapsed,
	}
	if elapsed > 0 {
		res.Throughput = float64(len(ops)) / elapsed.Seconds()
	}
	if r := cfg.Net.Ratio(); r != nil {
		res.Tog = r.Tog()
		res.AvgRatio = core.AvgRatio(res.Tog, cfg.EffWait())
	}
	return res, nil
}

// Drive is the timed-worker driver every real-goroutine run shares (shm
// and msgnet engines, conformance, the CLIs): workers goroutines claim
// operation tokens 0..ops-1 from one shared cursor and call next(proc,
// tok) for each, stamping the call's start and end in nanoseconds since
// base on the monotonic clock. Each operation lands in the slot its token
// indexes, so recording takes no lock and the log comes back in token
// order. The first error next returns stops the run and is returned in
// place of the log.
func Drive(base time.Time, workers, ops int, next func(proc, tok int32) (int64, error)) ([]lincheck.Op, error) {
	log := make([]lincheck.Op, ops)
	errs := make([]error, workers)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for p := range errs {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for tok := cursor.Add(1) - 1; tok < int64(ops); tok = cursor.Add(1) - 1 {
				start := time.Since(base)
				v, err := next(int32(p), int32(tok))
				if err != nil {
					errs[p] = err
					cursor.Store(int64(ops)) // no token below ops is left to claim
					return
				}
				log[tok] = lincheck.Op{Start: int64(start), End: int64(time.Since(base)), Value: v}
			}
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return log, nil
}

// pause delays the calling goroutine for d: short pauses poll (keeping
// microsecond precision), long ones sleep. The escalation policy is the
// shared backoff helper's, the same one combine slots use.
func pause(d time.Duration) { backoff.Pause(d) }
