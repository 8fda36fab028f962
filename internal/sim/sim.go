package sim

import (
	"fmt"
	"math/rand"

	"countnet/internal/core"
	"countnet/internal/lincheck"
	"countnet/internal/obs"
	"countnet/internal/stats"
	"countnet/internal/topo"
)

// Machine holds the cycle costs of the simulated multiprocessor. They are
// calibrated so the bitonic network's uncontended toggle wait lands near the
// paper's Figure 7 values (Tog ≈ 200 cycles at n=4) and the diffracting
// tree's prism path near Tog ≈ 900 cycles; see EXPERIMENTS.md.
type Machine struct {
	// AcquireCycles is the fixed cost of reaching a node and acquiring its
	// uncontended MCS lock (shared-memory round trips).
	AcquireCycles int64
	// ToggleCycles is the critical-section occupancy of one toggle.
	ToggleCycles int64
	// LinkCycles is the base wire time between nodes.
	LinkCycles int64
	// LinkJitter is the maximum extra wire time; each traversal adds a
	// uniform random amount in [0, LinkJitter] (network-on-chip and cache
	// variability). Zero means perfectly regular links.
	LinkJitter int64
	// CounterCycles is the occupancy of the output counter fetch-and-add.
	CounterCycles int64
	// PrismWindow is how long a token waits in a diffracting prism for a
	// partner before falling back to the toggle (diffracting trees only).
	PrismWindow int64
	// PairCycles is the shared-memory negotiation time of a diffracted pair.
	PairCycles int64
	// MemCycles adds global memory-system interference: every node access
	// costs an extra MemCycles * (tokens in flight) / 256 cycles, modeling
	// the Alewife directory and interconnect saturating as concurrency
	// grows (the paper's Figure 7 shows Tog rising ~2.5x from n=4 to
	// n=256 on the bitonic network).
	MemCycles int64
	// StartStagger spreads processor start times uniformly over
	// [0, StartStagger] cycles; zero starts all processors in lockstep.
	StartStagger int64
	// UnfairLocks replaces the FIFO (MCS) admission at every node with a
	// barging lock: the most recent arrival wins the next critical
	// section. The paper used MCS locks precisely to avoid this, "to
	// reduce contention on the nodes which would have attenuated the
	// influence of the W-waiting periods"; the ablation quantifies that
	// choice.
	UnfairLocks bool
}

// DefaultMachine returns the calibrated Alewife-like cost model.
func DefaultMachine() Machine {
	return Machine{
		AcquireCycles: 150,
		ToggleCycles:  50,
		LinkCycles:    10,
		LinkJitter:    300,
		CounterCycles: 50,
		PrismWindow:   700,
		PairCycles:    850,
		MemCycles:     380,
		StartStagger:  150,
	}
}

// Config describes one simulated benchmark run, mirroring the Section 5
// setup.
type Config struct {
	// Net is the balancing network to execute.
	Net *topo.Graph
	// Procs is the number of simulated processors (the paper's n).
	Procs int
	// Ops stops the run once this many operations completed (paper: 5000).
	Ops int
	// DelayedFrac is F: the fraction of processors that wait W cycles
	// after traversing each node.
	DelayedFrac float64
	// Wait is W, in cycles.
	Wait int64
	// RandomWait, when set, makes every processor wait a uniform random
	// number of cycles in [0, Wait] after each node instead (the paper's
	// final control experiment).
	RandomWait bool
	// Diffract enables the prism model on 2-output balancers (diffracting
	// trees).
	Diffract bool
	// Seed drives all pseudo-randomness (initial stagger, random waits).
	Seed int64
	// Machine is the cost model; zero value means DefaultMachine.
	Machine Machine
	// Tracer, when non-nil, receives one structured event per token
	// transition (enter, balancer/diffract/counter traverse, link hop,
	// exit) with cycle timestamps. Nil costs nothing on the hot path.
	Tracer obs.Tracer
	// Metrics, when non-nil, registers the simulator's live metric family
	// (sim_avg_c2c1, sim_tog_wait_cycles, per-wire min/max, ...) on the
	// registry and keeps it updated during the run.
	Metrics *obs.Registry
}

// Result aggregates one run's measurements.
type Result struct {
	// Ops holds every completed operation.
	Ops []lincheck.Op
	// Report is the linearizability analysis of Ops.
	Report lincheck.Report
	// Tog is the average time a token waited before passing a balancer
	// (queue wait + toggle, or prism wait + pairing), the paper's Tog.
	Tog float64
	// AvgRatio is the paper's Figure 7 measure (Tog + W) / Tog.
	AvgRatio float64
	// Toggles counts balancer traversals that went through the toggle;
	// Diffracted counts traversals resolved by prism pairing.
	Toggles    int64
	Diffracted int64
	// Cycles is the simulated time at which the last operation completed.
	Cycles int64
	// Latency summarizes per-operation durations in cycles.
	Latency stats.Summary
}

// Run simulates the configured benchmark and returns its measurements.
func Run(cfg Config) (*Result, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("sim: nil network")
	}
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("sim: %d processors", cfg.Procs)
	}
	if cfg.Ops < 1 {
		return nil, fmt.Errorf("sim: %d target operations", cfg.Ops)
	}
	if cfg.DelayedFrac < 0 || cfg.DelayedFrac > 1 {
		return nil, fmt.Errorf("sim: delayed fraction %f", cfg.DelayedFrac)
	}
	if cfg.Wait < 0 {
		return nil, fmt.Errorf("sim: negative wait %d", cfg.Wait)
	}
	if (cfg.Machine == Machine{}) {
		cfg.Machine = DefaultMachine()
	}
	// The Figure 7 formula (Tog+W)/Tog with W as configured; when nobody
	// actually waits (F=0) or everyone waits a random amount (mean W/2),
	// use the effective wait so the reported measure reflects the run.
	// Computed up front so the live ratio and the final Result agree.
	effW := float64(cfg.Wait)
	switch {
	case cfg.RandomWait:
		effW = float64(cfg.Wait) / 2
	case cfg.DelayedFrac == 0:
		effW = 0
	}
	s := &sim{
		cfg:      cfg,
		m:        cfg.Machine,
		st:       topo.NewStepper(cfg.Net),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		stations: make([]station, cfg.Net.NumNodes()),
		prisms:   make([]prism, cfg.Net.NumNodes()),
		delayed:  make([]bool, cfg.Procs),
		tr:       cfg.Tracer,
	}
	if cfg.Metrics != nil {
		s.mx = newSimMetrics(cfg.Metrics, cfg.Net, effW)
	}
	// The first F*n processors are the delayed ones, as in the paper's
	// fixed fraction; which processors they are does not matter since all
	// processors are symmetric.
	nd := int(cfg.DelayedFrac * float64(cfg.Procs))
	for p := 0; p < nd; p++ {
		s.delayed[p] = true
	}
	for p := 0; p < cfg.Procs; p++ {
		p := p
		start := int64(0)
		if s.m.StartStagger > 0 {
			start = s.rng.Int63n(s.m.StartStagger + 1)
		}
		s.eng.at(start, func() { s.startOp(p) })
	}
	s.eng.run()
	res := &Result{
		Ops:        s.ops,
		Tog:        0,
		Toggles:    s.toggles,
		Diffracted: s.diffracted,
		Cycles:     s.lastDone,
	}
	if s.nodeVisits > 0 {
		res.Tog = float64(s.nodeWaitSum) / float64(s.nodeVisits)
	}
	res.AvgRatio = core.AvgRatio(res.Tog, effW)
	res.Report = lincheck.Analyze(res.Ops)
	lat := make([]int64, len(res.Ops))
	for i, op := range res.Ops {
		lat[i] = op.End - op.Start
	}
	res.Latency = stats.Summarize(lat)
	return res, nil
}

// station models the lock serializing one node. In FIFO (MCS) mode,
// because arrivals are processed in time order, greedy slot assignment
// (start no earlier than the previous service's end) is exactly FIFO
// admission and no explicit queue is needed. In unfair (barging) mode an
// explicit waiter stack is kept and the most recent arrival is admitted on
// each release.
type station struct {
	nextFree int64    // FIFO mode
	busy     bool     // unfair mode
	waiting  []waiter // unfair mode, admitted LIFO
}

// waiter is one token parked at an unfair lock.
type waiter struct {
	proc    int
	tok     int
	arrival int64
}

// prism is the diffraction state of one node: at most one token waits for a
// partner at a time; gen invalidates stale timeout events.
type prism struct {
	waiting   int // waiting token id, valid when hasWaiter
	waitedAt  int64
	hasWaiter bool
	gen       int64
	waitProc  int
}

type sim struct {
	cfg Config
	m   Machine
	eng engine
	st  *topo.Stepper
	rng *rand.Rand

	stations []station
	prisms   []prism
	delayed  []bool

	tr obs.Tracer  // nil when tracing is disabled
	mx *simMetrics // nil when metrics are disabled

	// Causal span state, populated only when tracing: the engine is
	// single-threaded, so a plain counter issues ids and a map keyed by
	// token carries each token's previous span (keyed access only — never
	// iterated — so runs stay deterministic).
	spanSeq  uint64
	lastSpan map[int]uint64

	ops         []lincheck.Op
	opStart     map[int]int64 // token id -> start time
	started     int
	completed   int
	inflight    int64
	lastDone    int64
	nodeWaitSum int64
	nodeVisits  int64
	toggles     int64
	diffracted  int64
}

// startOp begins a new operation for processor p, unless the target has
// been reached.
func (s *sim) startOp(p int) {
	if s.started >= s.cfg.Ops {
		return
	}
	s.started++
	input := p % s.cfg.Net.InWidth()
	tok := s.st.Inject(input)
	if s.opStart == nil {
		s.opStart = make(map[int]int64, s.cfg.Ops)
	}
	s.opStart[tok] = s.eng.now
	s.inflight++
	if s.mx != nil {
		s.mx.inflight.Set(s.inflight)
	}
	if s.tr != nil {
		span, parent := s.stamp(tok)
		s.tr.Record(obs.Event{T: s.eng.now, Kind: obs.KindEnter, P: int32(p), Tok: int32(tok),
			Node: int32(s.st.At(tok).Node), Value: -1, Span: span, Parent: parent})
	}
	s.arrive(p, tok)
}

// stamp issues the next causal span id for token tok, returning it along
// with the token's previous span (0 for a fresh token) as the parent.
// Call only when tracing is enabled.
func (s *sim) stamp(tok int) (span, parent uint64) {
	s.spanSeq++
	span = s.spanSeq
	if s.lastSpan == nil {
		s.lastSpan = make(map[int]uint64, s.cfg.Procs)
	}
	parent = s.lastSpan[tok]
	s.lastSpan[tok] = span
	return span, parent
}

// memExtra is the global memory-interference cost of one node access: it
// grows linearly with the number of tokens in flight.
func (s *sim) memExtra() int64 {
	if s.m.MemCycles <= 0 || s.inflight <= 1 {
		return 0
	}
	return s.m.MemCycles * (s.inflight - 1) / 256
}

// arrive handles token tok of processor p reaching its next node at the
// current time.
func (s *sim) arrive(p, tok int) {
	node := s.st.At(tok).Node
	kind := s.cfg.Net.KindOf(node)
	if kind == topo.KindBalancer && s.cfg.Diffract && s.cfg.Net.FanOut(node) == 2 {
		s.arrivePrism(p, tok, node)
		return
	}
	occupancy := s.m.ToggleCycles
	if kind == topo.KindCounter {
		occupancy = s.m.CounterCycles
	}
	s.acquire(node, kind, occupancy, s.eng.now, p, tok)
}

// acquire runs token tok through node's lock: FIFO (MCS) by default, or
// barging when Machine.UnfairLocks is set. The lock is approached now (the
// engine's current time); arrival is when the token reached the node and
// anchors the Tog measurement (they differ for tokens that first waited in
// a prism).
func (s *sim) acquire(node topo.NodeID, kind topo.Kind, occupancy, arrival int64, p, tok int) {
	st := &s.stations[node]
	if s.m.UnfairLocks {
		if st.busy {
			st.waiting = append(st.waiting, waiter{proc: p, tok: tok, arrival: arrival})
			return
		}
		st.busy = true
		s.serveUnfair(node, kind, occupancy, arrival, p, tok)
		return
	}
	serviceStart := s.eng.now + s.m.AcquireCycles + s.memExtra()
	if st.nextFree > serviceStart {
		serviceStart = st.nextFree
	}
	serviceEnd := serviceStart + occupancy
	st.nextFree = serviceEnd
	s.eng.at(serviceEnd, func() {
		if kind == topo.KindBalancer {
			s.nodeWaitSum += serviceEnd - arrival
			s.nodeVisits++
			s.toggles++
			s.mx.observeTog(serviceEnd - arrival)
			if s.mx != nil {
				s.mx.toggles.Inc()
			}
		}
		if s.tr != nil {
			k := obs.KindBalancer
			if kind == topo.KindCounter {
				k = obs.KindCounter
			}
			span, parent := s.stamp(tok)
			s.tr.Record(obs.Event{T: serviceEnd, Dur: serviceEnd - arrival, Kind: k,
				P: int32(p), Tok: int32(tok), Node: int32(node), Value: -1,
				Span: span, Parent: parent})
		}
		s.transit(p, tok)
	})
}

// serveUnfair occupies the node for one critical section and, on release,
// admits the most recent waiter.
func (s *sim) serveUnfair(node topo.NodeID, kind topo.Kind, occupancy, arrival int64, p, tok int) {
	st := &s.stations[node]
	serviceEnd := s.eng.now + s.m.AcquireCycles + s.memExtra() + occupancy
	s.eng.at(serviceEnd, func() {
		if kind == topo.KindBalancer {
			s.nodeWaitSum += serviceEnd - arrival
			s.nodeVisits++
			s.toggles++
			s.mx.observeTog(serviceEnd - arrival)
			if s.mx != nil {
				s.mx.toggles.Inc()
			}
		}
		if s.tr != nil {
			k := obs.KindBalancer
			if kind == topo.KindCounter {
				k = obs.KindCounter
			}
			span, parent := s.stamp(tok)
			s.tr.Record(obs.Event{T: serviceEnd, Dur: serviceEnd - arrival, Kind: k,
				P: int32(p), Tok: int32(tok), Node: int32(node), Value: -1,
				Span: span, Parent: parent})
		}
		s.transit(p, tok)
		if len(st.waiting) == 0 {
			st.busy = false
			return
		}
		next := st.waiting[len(st.waiting)-1]
		st.waiting = st.waiting[:len(st.waiting)-1]
		s.serveUnfair(node, kind, occupancy, next.arrival, next.proc, next.tok)
	})
}

// arrivePrism handles a token reaching a diffracting balancer: pair with a
// waiting partner if one is present, otherwise wait PrismWindow for one and
// fall back to the toggle.
func (s *sim) arrivePrism(p, tok int, node topo.NodeID) {
	pr := &s.prisms[node]
	arrival := s.eng.now
	if pr.hasWaiter {
		partner, partnerProc, partnerArr := pr.waiting, pr.waitProc, pr.waitedAt
		pr.hasWaiter = false
		pr.gen++
		done := arrival + s.m.PairCycles + s.memExtra()
		s.eng.at(done, func() {
			s.nodeWaitSum += (done - partnerArr) + (done - arrival)
			s.nodeVisits += 2
			s.diffracted += 2
			s.mx.observeTog(done - partnerArr)
			s.mx.observeTog(done - arrival)
			if s.mx != nil {
				s.mx.diffracted.Add(2)
			}
			if s.tr != nil {
				span, pparent := s.stamp(partner)
				s.tr.Record(obs.Event{T: done, Dur: done - partnerArr, Kind: obs.KindDiffract,
					P: int32(partnerProc), Tok: int32(partner), Node: int32(node), Value: -1,
					Span: span, Parent: pparent})
				span, parent := s.stamp(tok)
				s.tr.Record(obs.Event{T: done, Dur: done - arrival, Kind: obs.KindDiffract,
					P: int32(p), Tok: int32(tok), Node: int32(node), Value: -1,
					Span: span, Parent: parent})
			}
			// The partner diffracts first: two consecutive toggle
			// positions, so the pair leaves on both outputs and the
			// toggle parity is preserved.
			s.transit(partnerProc, partner)
			s.transit(p, tok)
		})
		return
	}
	pr.hasWaiter = true
	pr.waiting = tok
	pr.waitProc = p
	pr.waitedAt = arrival
	pr.gen++
	gen := pr.gen
	s.eng.after(s.m.PrismWindow, func() {
		if !pr.hasWaiter || pr.gen != gen {
			return // already paired
		}
		pr.hasWaiter = false
		pr.gen++
		// Fall back to the toggle's lock.
		s.acquire(node, topo.KindBalancer, s.m.ToggleCycles, arrival, p, tok)
	})
}

// transit performs the instantaneous node transition for tok and schedules
// what follows: the next arrival (after link time plus any injected wait),
// or operation completion.
func (s *sim) transit(p, tok int) {
	from := s.st.At(tok).Node
	done, err := s.st.Step(tok)
	if err != nil {
		// Unreachable by construction; surface loudly in tests.
		panic(fmt.Sprintf("sim: step: %v", err))
	}
	if done {
		v, _ := s.st.Value(tok)
		start := s.opStart[tok]
		delete(s.opStart, tok)
		s.ops = append(s.ops, lincheck.Op{Start: start, End: s.eng.now, Value: v})
		s.completed++
		s.inflight--
		if s.mx != nil {
			s.mx.inflight.Set(s.inflight)
		}
		if s.tr != nil {
			span, parent := s.stamp(tok)
			s.tr.Record(obs.Event{T: s.eng.now, Kind: obs.KindExit,
				P: int32(p), Tok: int32(tok), Node: -1, Value: v,
				Span: span, Parent: parent})
			delete(s.lastSpan, tok)
		}
		if s.eng.now > s.lastDone {
			s.lastDone = s.eng.now
		}
		s.eng.after(s.postNodeWait(p), func() { s.startOp(p) })
		return
	}
	link := s.m.LinkCycles
	if s.m.LinkJitter > 0 {
		link += s.rng.Int63n(s.m.LinkJitter + 1)
	}
	s.mx.observeLink(from, link)
	if s.tr != nil {
		span, parent := s.stamp(tok)
		s.tr.Record(obs.Event{T: s.eng.now + link, Dur: link, Kind: obs.KindLink,
			P: int32(p), Tok: int32(tok), Node: int32(from), Value: -1,
			Span: span, Parent: parent})
	}
	s.eng.after(link+s.postNodeWait(p), func() { s.arrive(p, tok) })
}

// postNodeWait returns processor p's injected wait after traversing a node:
// W for delayed processors, uniform [0, W] in random-wait mode, else 0.
func (s *sim) postNodeWait(p int) int64 {
	if s.cfg.RandomWait {
		if s.cfg.Wait <= 0 {
			return 0
		}
		return s.rng.Int63n(s.cfg.Wait + 1)
	}
	if s.delayed[p] {
		return s.cfg.Wait
	}
	return 0
}
