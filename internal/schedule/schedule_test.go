package schedule

import (
	"math/rand"
	"testing"

	"countnet/internal/bitonic"
	"countnet/internal/dtree"
	"countnet/internal/lincheck"
	"countnet/internal/obs"
	"countnet/internal/periodic"
	"countnet/internal/topo"
)

func TestRunRejectsBadInput(t *testing.T) {
	g, err := dtree.New(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, []Arrival{{Time: 0, Input: 5}}, Constant(1), Options{}); err == nil {
		t.Error("Run accepted an out-of-range input")
	}
	if _, err := Run(g, []Arrival{{Time: 0, Input: 0}}, Constant(0), Options{}); err == nil {
		t.Error("Run accepted a zero link delay")
	}
}

func TestRunSequentialSpacedTokens(t *testing.T) {
	// Tokens spaced far apart must count 0,1,2,... on any network.
	for name, mk := range map[string]func() (*topo.Graph, error){
		"bitonic8":  func() (*topo.Graph, error) { return bitonic.New(8) },
		"periodic4": func() (*topo.Graph, error) { return periodic.New(4) },
		"dtree8":    func() (*topo.Graph, error) { return dtree.New(8) },
	} {
		g, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		var arr []Arrival
		for k := 0; k < 20; k++ {
			arr = append(arr, Arrival{Time: int64(k) * 100000, Input: k % g.InWidth()})
		}
		res, err := Run(g, arr, UniformRandom(10, 20, 1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for k, op := range res.Ops {
			if op.Value != int64(k) {
				t.Errorf("%s: token %d got value %d", name, k, op.Value)
			}
		}
		if rep := res.Report(); !rep.Linearizable() {
			t.Errorf("%s: %v", name, rep)
		}
	}
}

func TestRunExitTimesRespectDelays(t *testing.T) {
	g, err := dtree.New(8) // depth 3
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, []Arrival{{Time: 50, Input: 0}}, Constant(7), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := (lincheck.Op{Start: 50, End: 50 + 3*7, Value: 0}); res.Ops[0] != want {
		t.Errorf("op = %+v, want %+v", res.Ops[0], want)
	}
}

// TestRunTrace checks the stamping of the transition trace: time order,
// one balancer event per layer and a final counter event carrying the
// token's value, P = Tok = the token id, spans numbered by trace index,
// and each token's events chained through Parent.
func TestRunTrace(t *testing.T) {
	g, err := dtree.New(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, []Arrival{{Time: 0, Input: 0}, {Time: 3, Input: 0}},
		Constant(10), Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	// Each token transits depth()+1 = 3 nodes (2 balancers + counter).
	if len(res.Events) != 6 {
		t.Fatalf("events = %d, want 6", len(res.Events))
	}
	hops := make(map[int32]int)
	last := make(map[int32]uint64)
	for i, ev := range res.Events {
		if i > 0 && ev.T < res.Events[i-1].T {
			t.Errorf("events out of order at %d: %+v", i, res.Events)
		}
		if ev.P != ev.Tok || ev.Tok < 0 || ev.Tok > 1 {
			t.Errorf("event %d: P %d, Tok %d", i, ev.P, ev.Tok)
		}
		if ev.Span != uint64(i+1) || ev.Parent != last[ev.Tok] {
			t.Errorf("event %d: span %d parent %d, want %d and %d", i, ev.Span, ev.Parent, i+1, last[ev.Tok])
		}
		last[ev.Tok] = ev.Span
		hops[ev.Tok]++
		op := res.Ops[ev.Tok]
		switch {
		case hops[ev.Tok] < 3:
			if ev.Kind != obs.KindBalancer || ev.Value != -1 || g.KindOf(topo.NodeID(ev.Node)) == topo.KindCounter {
				t.Errorf("event %d should be a balancer transition: %+v", i, ev)
			}
		case ev.Kind != obs.KindCounter || ev.Value != op.Value || ev.T != op.End ||
			g.KindOf(topo.NodeID(ev.Node)) != topo.KindCounter:
			t.Errorf("event %d should be token %d's counter transition (op %+v): %+v", i, ev.Tok, op, ev)
		}
	}
}

func TestUniformRandomDeterministicAndBounded(t *testing.T) {
	d := UniformRandom(10, 30, 42)
	for tok := 0; tok < 50; tok++ {
		for link := 1; link <= 20; link++ {
			v := d.Link(tok, link)
			if v < 10 || v > 30 {
				t.Fatalf("delay %d out of [10,30]", v)
			}
			if v != d.Link(tok, link) {
				t.Fatal("UniformRandom is not deterministic")
			}
		}
	}
	if UniformRandom(10, 5, 1).Link(0, 1) != 10 {
		t.Error("degenerate range not clamped to c1")
	}
}

func TestBimodalBounds(t *testing.T) {
	d := Bimodal(10, 100, 0.3, 7)
	slow := 0
	for tok := 0; tok < 1000; tok++ {
		v := d.Link(tok, 1)
		switch v {
		case 10:
		case 100:
			slow++
		default:
			t.Fatalf("bimodal delay %d", v)
		}
	}
	if slow < 200 || slow > 400 {
		t.Errorf("slow fraction %d/1000, want ~300", slow)
	}
}

// TestCorollary39 property-tests Corollary 3.9: with c2 <= 2*c1, every
// uniform counting network is linearizable, under random arrivals and
// random link delays.
func TestCorollary39(t *testing.T) {
	nets := map[string]*topo.Graph{}
	for _, w := range []int{2, 4, 8} {
		g, err := bitonic.New(w)
		if err != nil {
			t.Fatal(err)
		}
		nets["bitonic"+string(rune('0'+w))] = g
		g, err = dtree.New(w)
		if err != nil {
			t.Fatal(err)
		}
		nets["dtree"+string(rune('0'+w))] = g
	}
	g, err := periodic.New(4)
	if err != nil {
		t.Fatal(err)
	}
	nets["periodic4"] = g

	rng := rand.New(rand.NewSource(11))
	for name, g := range nets {
		for trial := 0; trial < 30; trial++ {
			const c1 = 10
			c2 := int64(c1 + rng.Intn(c1+1)) // c2 in [c1, 2*c1]
			n := 2 + rng.Intn(40)
			arr := make([]Arrival, n)
			for k := range arr {
				arr[k] = Arrival{
					Time:  int64(rng.Intn(30 * n)),
					Input: rng.Intn(g.InWidth()),
				}
			}
			res, err := Run(g, arr, UniformRandom(c1, c2, rng.Int63()), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rep := res.Report(); !rep.Linearizable() {
				t.Errorf("%s trial %d: violation with c2=%d <= 2*c1: %v", name, trial, c2, rep)
			}
		}
	}
}

// TestLemma37 property-tests Lemma 3.7: tokens whose start times are
// separated by more than 2*h*(c2-c1) return increasing values even for
// arbitrary c2/c1 ratios.
func TestLemma37(t *testing.T) {
	g, err := bitonic.New(8)
	if err != nil {
		t.Fatal(err)
	}
	const c1, c2 = 10, 100 // ratio 10, far beyond 2
	gap := 2*int64(g.Depth())*(c2-c1) + 1
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(20)
		arr := make([]Arrival, n)
		next := int64(0)
		for k := range arr {
			arr[k] = Arrival{Time: next, Input: rng.Intn(g.InWidth())}
			next += gap + int64(rng.Intn(50))
		}
		res, err := Run(g, arr, UniformRandom(c1, c2, rng.Int63()), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k < n; k++ {
			if res.Ops[k].Value <= res.Ops[k-1].Value {
				t.Fatalf("trial %d: token %d value %d <= token %d value %d despite gap > 2h(c2-c1)",
					trial, k, res.Ops[k].Value, k-1, res.Ops[k-1].Value)
			}
		}
	}
}
