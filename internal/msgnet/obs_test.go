package msgnet

import (
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"countnet/internal/bitonic"
	"countnet/internal/faults"
	"countnet/internal/obs"
)

// TestTracedTraversals runs concurrent traced traversals and checks the
// trace records every token's enter, per-hop balancer events, counter
// event, and exit, with exit values forming a permutation.
func TestTracedTraversals(t *testing.T) {
	g, err := bitonic.New(4)
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRing(8, 1<<13)
	reg := obs.NewRegistry()
	n, err := StartOpts(g, Options{Buffer: 1, Tracer: ring, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	const workers, per = 8, 25
	const ops = workers * per
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tok := int32(w*per + i)
				if _, err := n.TraverseObs(w%g.InWidth(), int32(w), tok); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	events := ring.Events()
	counts := map[obs.Kind]int{}
	var values []int64
	perTok := map[int32]int{}
	for _, ev := range events {
		counts[ev.Kind]++
		if ev.Kind == obs.KindBalancer {
			if ev.Dur < 0 {
				t.Fatalf("negative hop wait: %+v", ev)
			}
			perTok[ev.Tok]++
		}
		if ev.Kind == obs.KindExit {
			values = append(values, ev.Value)
		}
	}
	if counts[obs.KindEnter] != ops || counts[obs.KindExit] != ops || counts[obs.KindCounter] != ops {
		t.Fatalf("trace kind counts wrong: %v, want %d enter/exit/counter", counts, ops)
	}
	depth := g.Depth()
	for tok, hops := range perTok {
		if hops != depth {
			t.Fatalf("token %d traversed %d balancers, network depth is %d", tok, hops, depth)
		}
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	for i, v := range values {
		if v != int64(i) {
			t.Fatalf("traced exit values are not a permutation at %d: %d", i, v)
		}
	}

	// Metrics saw every hop; the ratio with EffWait=0 degenerates to 1.
	if got := reg.Histogram("msgnet_hop_wait_ns").Count(); got != int64(ops*depth) {
		t.Fatalf("hop histogram has %d samples, want %d", got, ops*depth)
	}
	r := n.Ratio()
	if r == nil || r.Value() != 1 {
		t.Fatalf("W=0 ratio should be exactly 1, got %v", r)
	}
	// The ratio is the registered view of the hop histogram.
	if reg.Ratio("msgnet_avg_c2c1", 0) != r {
		t.Fatal("Registry.Ratio does not return the network's registered view")
	}
	if got, want := r.Tog(), reg.Histogram("msgnet_hop_wait_ns").Mean(); got != want {
		t.Fatalf("ratio Tog %f, hop histogram mean %f: not one accumulator", got, want)
	}
}

// TestUntracedUnaffected pins that plain Start/Traverse still works and
// records nothing.
func TestUntracedUnaffected(t *testing.T) {
	g, err := bitonic.New(2)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Start(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.Ratio() != nil {
		t.Fatal("untraced network has obs state")
	}
	for i := 0; i < 16; i++ {
		if _, err := n.Traverse(i % g.InWidth()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCausalSpansFaultFree runs traced traversals and checks the span
// graph: every event carries a unique span id, every token's journey is a
// single parent chain enter → balancers → counter → exit with span ids
// strictly increasing along it, and the trace is causally closed.
func TestCausalSpansFaultFree(t *testing.T) {
	g, err := bitonic.New(4)
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRing(4, 1<<13)
	n, err := StartOpts(g, Options{Buffer: 1, Tracer: ring})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	const workers, per = 4, 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := n.TraverseObs(w%g.InWidth(), int32(w), int32(w*per+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	events := ring.Events()
	if closed, orphans := obs.CausalClosure(events); orphans != 0 || len(closed) != len(events) {
		t.Fatalf("fault-free trace not causally closed: %d orphans", orphans)
	}
	spans := map[uint64]obs.Event{}
	for _, ev := range events {
		if ev.Span == 0 {
			t.Fatalf("unstamped event in traced run: %+v", ev)
		}
		if prev, dup := spans[ev.Span]; dup {
			t.Fatalf("span id %d reused: %+v and %+v", ev.Span, prev, ev)
		}
		spans[ev.Span] = ev
	}
	// Group per token and walk each chain.
	byTok := map[int32][]obs.Event{}
	for _, ev := range events {
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
		if chain[len(chain)-1].Kind != obs.KindExit || chain[len(chain)-2].Kind != obs.KindCounter {
			t.Fatalf("token %d chain does not end counter → exit: %+v", tok, chain)
		}
	}
}

// TestCausalSpansUnderFaults checks the faulty paths stay on the causal
// graph: retries and dedups appear as stamped events chained into their
// token's journey, and the full trace still closes.
func TestCausalSpansUnderFaults(t *testing.T) {
	g, err := bitonic.New(4)
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRing(4, 1<<15)
	plan := &faults.Plan{Seed: 11, Default: faults.Rule{Drop: 0.3, Dup: 0.3}}
	n, err := StartOpts(g, Options{Buffer: 1, Tracer: ring, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	const workers, per = 4, 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := n.TraverseObs(w%g.InWidth(), int32(w), int32(w*per+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Duplicated tokens may still be in flight after every worker has its
	// value; Close waits for them, so the trace below is quiescent.
	n.Close()
	if n.Retries() == 0 || n.Dedups() == 0 {
		t.Skipf("plan injected no retries/dedups (retries=%d dedups=%d)", n.Retries(), n.Dedups())
	}

	events := ring.Events()
	if _, orphans := obs.CausalClosure(events); orphans != 0 {
		t.Fatalf("faulty trace not causally closed: %d orphans", orphans)
	}
	spans := map[uint64]obs.Event{}
	kinds := map[obs.Kind]int{}
	for _, ev := range events {
		if ev.Span == 0 {
			t.Fatalf("unstamped event in traced faulty run: %+v", ev)
		}
		spans[ev.Span] = ev
		kinds[ev.Kind]++
	}
	if kinds[obs.KindRetry] == 0 || kinds[obs.KindDedup] == 0 {
		t.Fatalf("faulty events not traced: %v (engine counted retries=%d dedups=%d)",
			kinds, n.Retries(), n.Dedups())
	}
	for _, ev := range events {
		if ev.Parent == 0 {
			if ev.Kind != obs.KindEnter {
				t.Fatalf("non-enter root event: %+v", ev)
			}
			continue
		}
		parent, ok := spans[ev.Parent]
		if !ok {
			t.Fatalf("event references missing parent: %+v", ev)
		}
		if parent.Span >= ev.Span {
			t.Fatalf("span ids not increasing along causal edge: %+v -> %+v", parent, ev)
		}
		if parent.Tok != ev.Tok {
			t.Fatalf("causal edge crosses tokens: %+v -> %+v", parent, ev)
		}
		if ev.Kind == obs.KindRetry && ev.Dur <= 0 {
			t.Fatalf("retry event without backoff duration: %+v", ev)
		}
	}
}

// TestFlightValveTrip runs a plan whose partition window is long enough
// to exhaust MaxAttempts and checks the teed flight recorder trips with
// reason "liveness-valve" and, dumped once the network is closed, leaves
// a causally closed window of the moments before.
func TestFlightValveTrip(t *testing.T) {
	g, err := bitonic.New(2)
	if err != nil {
		t.Fatal(err)
	}
	flight := obs.NewRing(2, 256)
	// Every delivery on link 0 inside a huge window is dropped; the sender
	// must exhaust MaxAttempts and get forced through.
	plan := &faults.Plan{Seed: 3,
		Partitions: []faults.Partition{{Links: []int{0}, From: 0, To: faults.MaxWindow}}}
	n, err := StartOpts(g, Options{Buffer: 1, Faults: plan, Flight: flight})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for i := 0; i < 4; i++ {
		if _, err := n.TraverseObs(0, 0, int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	n.Close()
	if flight.Tripped() != "liveness-valve" {
		t.Fatalf("flight not tripped by valve: %q", flight.Tripped())
	}
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	meta := obs.Meta{Engine: "msgnet", Unit: "ns", Net: "bitonic", Width: 2}
	if err := obs.Dump(path, meta, flight.Tripped(), flight.Events()); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	meta, events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Reason != "liveness-valve" {
		t.Fatalf("dump reason = %q", meta.Reason)
	}
	if len(events) == 0 {
		t.Fatal("valve dump is empty")
	}
	retries := 0
	for _, ev := range events {
		if ev.Kind == obs.KindRetry {
			retries++
		}
	}
	if retries < faults.MaxAttempts {
		t.Fatalf("dump shows %d retries before the valve, want >= %d", retries, faults.MaxAttempts)
	}
}
