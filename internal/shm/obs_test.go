package shm

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"countnet/internal/bitonic"
	"countnet/internal/obs"
)

// TestStressTraced runs the goroutine stress driver with tracing and
// metrics on and checks the trace is a faithful record: one enter and one
// exit per operation, exit values forming the permutation 0..Ops-1, every
// balancer event carrying a non-negative duration, and the live
// (Tog+W)/Tog surfaced in the result.
func TestStressTraced(t *testing.T) {
	g, err := bitonic.New(4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Compile(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRing(8, 1<<13)
	reg := obs.NewRegistry()
	const ops = 400
	res, err := Stress(StressConfig{
		Net: n, Workers: 8, Ops: ops,
		DelayedFrac: 0.5, Delay: 5 * time.Microsecond,
		Seed: 42, Tracer: ring, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Total != ops {
		t.Fatalf("analyzed %d ops, want %d", res.Report.Total, ops)
	}
	// Tog is a mean of wall-clock toggle waits: on a platform with coarse
	// clock granularity every sampled wait can legitimately measure zero,
	// so the populated-measure assertion is strict-timing-gated (the PR-5
	// convention) rather than a hard failure.
	if res.Tog <= 0 || res.AvgRatio <= 1 {
		if os.Getenv("COUNTNET_STRICT_TIMING") == "" {
			t.Logf("live timing measure not populated (Tog=%f AvgRatio=%f); coarse clocks can measure zero waits, set COUNTNET_STRICT_TIMING=1 to enforce", res.Tog, res.AvgRatio)
		} else {
			t.Fatalf("live timing measure not populated: Tog=%f AvgRatio=%f", res.Tog, res.AvgRatio)
		}
	}

	events := ring.Events()
	if ring.Overwritten() > 0 {
		t.Fatalf("ring overwrote %d events; size it up", ring.Overwritten())
	}
	counts := map[obs.Kind]int{}
	var values []int64
	for _, ev := range events {
		counts[ev.Kind]++
		if ev.Kind == obs.KindBalancer && ev.Dur < 0 {
			t.Fatalf("negative balancer duration: %+v", ev)
		}
		if ev.Kind == obs.KindExit {
			values = append(values, ev.Value)
		}
	}
	if counts[obs.KindEnter] != ops || counts[obs.KindExit] != ops || counts[obs.KindCounter] != ops {
		t.Fatalf("trace kind counts wrong: %v, want %d enter/exit/counter", counts, ops)
	}
	if counts[obs.KindBalancer] == 0 {
		t.Fatal("no balancer events traced")
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	for i, v := range values {
		if v != int64(i) {
			t.Fatalf("traced exit values are not a permutation at %d: %d", i, v)
		}
	}

	// Metrics agree with the trace: the wait histogram saw every balancer
	// traversal, and the exported ratio matches the result.
	hist := reg.Histogram("shm_tog_wait_ns")
	if got := hist.Count(); got != int64(counts[obs.KindBalancer]) {
		t.Fatalf("wait histogram has %d samples, trace has %d balancer events", got, counts[obs.KindBalancer])
	}
	// The ratio is the registered view of that histogram, so its Tog is
	// exactly the histogram's mean and the result's Tog.
	r := n.Ratio()
	if r == nil || reg.Ratio("shm_avg_c2c1", 0) != r {
		t.Fatal("Registry.Ratio does not return the network's registered view")
	}
	if r.Tog() != hist.Mean() || r.Tog() != res.Tog {
		t.Fatalf("ratio Tog %f, histogram mean %f, result Tog %f: not one accumulator", r.Tog(), hist.Mean(), res.Tog)
	}
	var txt bytes.Buffer
	reg.WriteText(&txt)
	if want := fmt.Sprintf("shm_counter_fai_total %d\n", ops); !bytes.Contains(txt.Bytes(), []byte(want)) {
		t.Fatalf("metrics text missing %q:\n%s", want, txt.String())
	}
	if !bytes.Contains(txt.Bytes(), []byte("shm_avg_c2c1")) {
		t.Fatalf("metrics text missing ratio gauge:\n%s", txt.String())
	}

	// Chrome export of a wall-clock trace succeeds.
	var buf bytes.Buffer
	meta := obs.Meta{Engine: "shm", Unit: "ns", Net: "bitonic", Width: 4}
	if err := obs.WriteChromeTrace(&buf, meta, events); err != nil {
		t.Fatal(err)
	}
}

// TestStressDiffractRetries checks the prism CAS-retry counter is exported
// when diffracting balancers are compiled in.
func TestStressDiffractRetries(t *testing.T) {
	g, err := bitonic.New(2)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Compile(g, Options{Diffract: true})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if _, err := Stress(StressConfig{Net: n, Workers: 8, Ops: 500, Seed: 1, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	var txt bytes.Buffer
	reg.WriteText(&txt)
	if !bytes.Contains(txt.Bytes(), []byte("shm_prism_cas_retries_total")) {
		t.Fatalf("metrics text missing prism retry gauge:\n%s", txt.String())
	}
}

// TestEffWait pins the W convention shared with the simulator.
func TestEffWait(t *testing.T) {
	for _, tc := range []struct {
		cfg  StressConfig
		want float64
	}{
		{StressConfig{Delay: 1000, DelayedFrac: 0.5}, 1000},
		{StressConfig{Delay: 1000, RandomDelay: true}, 500},
		{StressConfig{Delay: 1000, DelayedFrac: 0}, 0},
		{StressConfig{Delay: 0, DelayedFrac: 0.5}, 0},
		// Edge cases: a negative delay is no delay, even randomized;
		// RandomDelay wins over a zero DelayedFrac (every worker draws
		// from [0,W)); burning the delay instead of pausing does not
		// change W itself; a full delayed fraction is just W.
		{StressConfig{Delay: -1000, DelayedFrac: 0.5}, 0},
		{StressConfig{Delay: -1000, RandomDelay: true}, 0},
		{StressConfig{Delay: 1000, RandomDelay: true, DelayedFrac: 0}, 500},
		{StressConfig{Delay: 1000, DelayedFrac: 1}, 1000},
		{StressConfig{Delay: 1000, DelayedFrac: 1, BurnDelay: true}, 1000},
	} {
		if got := tc.cfg.EffWait(); got != tc.want {
			t.Errorf("EffWait(%+v) = %f, want %f", tc.cfg, got, tc.want)
		}
	}
}

// TestStressCausalSpans checks the shared-memory trace carries the same
// causal structure msgnet's does: unique span ids, each token a single
// enter → balancers → counter → exit parent chain, and the whole trace
// causally closed.
func TestStressCausalSpans(t *testing.T) {
	g, err := bitonic.New(4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Compile(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRing(4, 1<<13)
	const ops = 200
	if _, err := Stress(StressConfig{Net: n, Workers: 4, Ops: ops, Seed: 7, Tracer: ring}); err != nil {
		t.Fatal(err)
	}
	events := ring.Events()
	if closed, orphans := obs.CausalClosure(events); orphans != 0 || len(closed) != len(events) {
		t.Fatalf("stress trace not causally closed: %d orphans", orphans)
	}
	spans := map[uint64]bool{}
	byTok := map[int32][]obs.Event{}
	for _, ev := range events {
		if ev.Span == 0 {
			t.Fatalf("unstamped event in traced run: %+v", ev)
		}
		if spans[ev.Span] {
			t.Fatalf("span id %d reused", ev.Span)
		}
		spans[ev.Span] = true
		byTok[ev.Tok] = append(byTok[ev.Tok], ev)
	}
	depth := g.Depth()
	for tok, chain := range byTok {
		sort.Slice(chain, func(i, j int) bool { return chain[i].Span < chain[j].Span })
		if len(chain) != depth+3 {
			t.Fatalf("token %d has %d events, want enter+%d balancers+counter+exit", tok, len(chain), depth)
		}
		if chain[0].Kind != obs.KindEnter || chain[0].Parent != 0 {
			t.Fatalf("token %d chain does not start at a root enter: %+v", tok, chain[0])
		}
		for i := 1; i < len(chain); i++ {
			if chain[i].Parent != chain[i-1].Span {
				t.Fatalf("token %d causal chain broken at %d: %+v after %+v", tok, i, chain[i], chain[i-1])
			}
		}
	}
}
