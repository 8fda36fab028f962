package sim

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"countnet/internal/bitonic"
	"countnet/internal/obs"
)

// TestTracedRunWidth32 is the tentpole acceptance check: a traced sim run
// of the width-32 bitonic network must (a) export a Chrome-trace file, (b)
// have per-wire min/max link traversals that reproduce the engine's
// configured c1 = LinkCycles and c2 = LinkCycles+LinkJitter, and (c) report
// a live (Tog+W)/Tog gauge matching the offline Result.AvgRatio within 1%.
func TestTracedRunWidth32(t *testing.T) {
	g, err := bitonic.New(32)
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultMachine()
	c1 := m.LinkCycles
	c2 := m.LinkCycles + m.LinkJitter
	ring := obs.NewRing(64, 1<<15)
	reg := obs.NewRegistry()
	cfg := Config{
		Net:         g,
		Procs:       64,
		Ops:         1500,
		DelayedFrac: 0.25,
		Wait:        10000,
		Seed:        7,
		Machine:     m,
		Tracer:      ring,
		Metrics:     reg,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// (c) live gauge vs offline computation. The gauge is the view the
	// simulator registered over its wait histogram, so its Tog is exactly
	// that histogram's mean and its W the run's configured wait.
	ratio := reg.Ratio("sim_avg_c2c1", 0)
	if ratio.W() != float64(cfg.Wait) || reg.Ratio("sim_avg_c2c1", 0) != ratio {
		t.Fatalf("Registry.Ratio returned W=%g, not the registered view (W=%d)", ratio.W(), cfg.Wait)
	}
	hist := reg.Histogram("sim_tog_wait_cycles")
	if got, want := ratio.Tog(), hist.Mean(); got != want {
		t.Fatalf("ratio Tog %f, wait histogram mean %f: not one accumulator", got, want)
	}
	if got, want := hist.Count(), res.Toggles+res.Diffracted; got != want {
		t.Fatalf("wait histogram has %d samples, run made %d toggles and diffractions", got, want)
	}
	if got, want := ratio.Value(), res.AvgRatio; math.Abs(got-want)/want > 0.01 {
		t.Fatalf("live (Tog+W)/Tog gauge %f, offline %f: differ by more than 1%%", got, want)
	}
	if got := ratio.Tog(); math.Abs(got-res.Tog)/res.Tog > 0.01 {
		t.Fatalf("live Tog %f, offline %f", got, res.Tog)
	}

	// (b) per-wire extremes from the live metrics...
	wire := reg.MinMax("sim_wire_cycles")
	lo, ok := wire.Min()
	if !ok {
		t.Fatal("no wire traversals observed")
	}
	hi, _ := wire.Max()
	if lo < c1 || hi > c2 {
		t.Fatalf("wire extremes [%d,%d] outside configured [c1=%d,c2=%d]", lo, hi, c1, c2)
	}
	// ...with this many samples the bounds are attained exactly.
	if lo != c1 || hi != c2 {
		t.Fatalf("wire extremes [%d,%d] do not reproduce configured c1=%d, c2=%d", lo, hi, c1, c2)
	}

	// (a) trace export, and per-wire extremes recomputed from the trace
	// file agree with the configured bounds too.
	events := ring.Events()
	if ring.Overwritten() > 0 {
		t.Fatalf("ring overwrote %d events; size the ring up", ring.Overwritten())
	}
	var buf bytes.Buffer
	meta := obs.Meta{Engine: "sim", Unit: "cycles", Net: "bitonic", Width: 32}
	if err := obs.WriteChromeTrace(&buf, meta, events); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty chrome trace")
	}
	linkMin, linkMax := int64(math.MaxInt64), int64(math.MinInt64)
	counts := map[obs.Kind]int{}
	var values []int64
	for _, ev := range events {
		counts[ev.Kind]++
		if ev.Kind == obs.KindLink {
			if ev.Dur < linkMin {
				linkMin = ev.Dur
			}
			if ev.Dur > linkMax {
				linkMax = ev.Dur
			}
		}
		if ev.Kind == obs.KindExit {
			values = append(values, ev.Value)
		}
	}
	if linkMin != c1 || linkMax != c2 {
		t.Fatalf("trace per-wire extremes [%d,%d], want [c1=%d,c2=%d]", linkMin, linkMax, c1, c2)
	}
	if counts[obs.KindEnter] != cfg.Ops || counts[obs.KindExit] != cfg.Ops {
		t.Fatalf("trace has %d enters / %d exits, want %d each", counts[obs.KindEnter], counts[obs.KindExit], cfg.Ops)
	}
	if counts[obs.KindBalancer] == 0 || counts[obs.KindLink] == 0 || counts[obs.KindCounter] != cfg.Ops {
		t.Fatalf("trace kind counts look wrong: %v", counts)
	}
	// Exit values are the full permutation 0..Ops-1 — the trace is a
	// faithful record of the run.
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	for i, v := range values {
		if v != int64(i) {
			t.Fatalf("traced exit values are not a permutation at %d: %d", i, v)
		}
	}
}

// TestTracedRunZeroJitter pins the exact-reproduction case: without link
// jitter every wire traversal is exactly LinkCycles.
func TestTracedRunZeroJitter(t *testing.T) {
	g, err := bitonic.New(4)
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultMachine()
	m.LinkJitter = 0
	reg := obs.NewRegistry()
	if _, err := Run(Config{Net: g, Procs: 4, Ops: 64, Seed: 1, Machine: m, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	wire := reg.MinMax("sim_wire_cycles")
	lo, ok := wire.Min()
	hi, _ := wire.Max()
	if !ok || lo != m.LinkCycles || hi != m.LinkCycles {
		t.Fatalf("zero-jitter wire extremes [%d,%d], want exactly %d", lo, hi, m.LinkCycles)
	}
}

// TestDiffractTraced covers the prism path: a traced dtree run must emit
// diffract events and count them in the metrics.
func TestDiffractTraced(t *testing.T) {
	g, err := bitonic.New(2) // any 2-output balancer network diffracts
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRing(16, 1<<12)
	reg := obs.NewRegistry()
	res, err := Run(Config{Net: g, Procs: 16, Ops: 400, Diffract: true, Seed: 3, Tracer: ring, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diffracted == 0 {
		t.Skip("no diffraction happened under this seed")
	}
	if got := reg.Counter("sim_diffracted_total").Value(); got != res.Diffracted {
		t.Fatalf("diffracted counter %d, result says %d", got, res.Diffracted)
	}
	var diffracts int
	for _, ev := range ring.Events() {
		if ev.Kind == obs.KindDiffract {
			diffracts++
		}
	}
	if int64(diffracts) != res.Diffracted {
		t.Fatalf("trace has %d diffract events, result says %d", diffracts, res.Diffracted)
	}
}

// TestUntracedRunUnchanged guards the zero-cost-when-disabled property at
// the behavioural level: the same seed yields the identical result with
// and without tracing.
func TestUntracedRunUnchanged(t *testing.T) {
	g, err := bitonic.New(8)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Net: g, Procs: 8, Ops: 256, DelayedFrac: 0.25, Wait: 1000, Seed: 11}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	traced := base
	traced.Tracer = obs.NewRing(8, 1<<13)
	traced.Metrics = obs.NewRegistry()
	withObs, err := Run(traced)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cycles != withObs.Cycles || plain.Tog != withObs.Tog ||
		plain.Report != withObs.Report || len(plain.Ops) != len(withObs.Ops) {
		t.Fatalf("tracing changed the run: %+v vs %+v", plain.Report, withObs.Report)
	}
}

// TestCausalSpansDeterministic checks the simulator's span graph: unique
// ids, each token a single parent chain, the trace causally closed, and —
// because the engine is single-threaded — two runs with the same seed
// produce identical span/parent assignments.
func TestCausalSpansDeterministic(t *testing.T) {
	run := func() []obs.Event {
		g, err := bitonic.New(4)
		if err != nil {
			t.Fatal(err)
		}
		ring := obs.NewRing(8, 1<<14)
		if _, err := Run(Config{Net: g, Procs: 8, Ops: 200, Seed: 3, Tracer: ring}); err != nil {
			t.Fatal(err)
		}
		return ring.Events()
	}
	events := run()
	if closed, orphans := obs.CausalClosure(events); orphans != 0 || len(closed) != len(events) {
		t.Fatalf("sim trace not causally closed: %d orphans", orphans)
	}
	spans := map[uint64]bool{}
	chains := map[int32]uint64{} // token → last span seen walking span order
	var order []obs.Event
	for _, ev := range events {
		if ev.Span == 0 {
			t.Fatalf("unstamped event in traced run: %+v", ev)
		}
		if spans[ev.Span] {
			t.Fatalf("span id %d reused", ev.Span)
		}
		spans[ev.Span] = true
		order = append(order, ev)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].Span < order[j].Span })
	for _, ev := range order {
		if ev.Parent != chains[ev.Tok] {
			t.Fatalf("token %d chain broken: event %+v, expected parent %d", ev.Tok, ev, chains[ev.Tok])
		}
		if ev.Kind == obs.KindExit {
			delete(chains, ev.Tok)
		} else {
			chains[ev.Tok] = ev.Span
		}
	}
	if len(chains) != 0 {
		t.Fatalf("%d tokens never exited their span chain", len(chains))
	}

	again := run()
	if len(again) != len(events) {
		t.Fatalf("reruns traced %d vs %d events", len(again), len(events))
	}
	for i := range events {
		if events[i] != again[i] {
			t.Fatalf("sim trace not deterministic at %d: %+v vs %+v", i, events[i], again[i])
		}
	}
}
