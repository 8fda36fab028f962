package adaptive_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"countnet/internal/bitonic"
	"countnet/internal/lincheck"
	"countnet/internal/obs"
	"countnet/internal/shm"
	"countnet/internal/shm/adaptive"
	"countnet/internal/topo"
)

// matrixWidths is the width axis of the switch-boundary property tests:
// every power of two from the degenerate single-counter network up to
// twice the paper's width.
var matrixWidths = []int{1, 2, 4, 8, 16, 32, 64}

// buildGraph returns a counting network of the given width: the
// hand-built pass-through graph for width 1 (which the bitonic
// constructor rejects) and Bitonic[w] otherwise.
func buildGraph(t *testing.T, width int) *topo.Graph {
	t.Helper()
	if width == 1 {
		b := topo.NewBuilder()
		ins := b.Inputs(1)
		out := b.Balancer11(ins[0])
		b.Terminate([]topo.Out{out})
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g, err := bitonic.New(width)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// newCounter compiles the width's network and wraps it in an adaptive
// counter with the given options.
func newCounter(t *testing.T, width int, opts adaptive.Options) *adaptive.Counter {
	t.Helper()
	n, err := shm.Compile(buildGraph(t, width), shm.Options{Kind: shm.KindMCS})
	if err != nil {
		t.Fatal(err)
	}
	c, err := adaptive.New(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkValues asserts the run handed out exactly 0..n-1 (the gap
// property) and that the per-output tallies implied by value mod width
// are exactly the step-property counts (the step property) — the two
// invariants no mode switch may ever disturb.
func checkValues(t *testing.T, vals []int64, width int) {
	t.Helper()
	seen := make([]bool, len(vals))
	tallies := make([]int64, width)
	for _, v := range vals {
		if v < 0 || v >= int64(len(vals)) || seen[v] {
			t.Fatalf("value %d duplicated or out of range [0,%d)", v, len(vals))
		}
		seen[v] = true
		tallies[int(v)%width]++
	}
	want := topo.StepCounts(int64(len(vals)), width)
	for i := range tallies {
		if tallies[i] != want[i] {
			t.Fatalf("output tallies %v != step counts %v", tallies, want)
		}
	}
	if !topo.StepPropertyHolds(tallies) {
		t.Fatalf("output tallies %v violate the step property", tallies)
	}
}

// checkConservation rolls the live epoch closed and asserts the epoch
// log accounts for every token exactly once.
func checkConservation(t *testing.T, c *adaptive.Counter, total int64) {
	t.Helper()
	if err := c.SwitchTo(c.Mode()); err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, e := range c.Epochs() {
		if e.Tokens < 0 {
			t.Fatalf("epoch %d issued %d tokens", e.Epoch, e.Tokens)
		}
		sum += e.Tokens
	}
	if sum != total {
		t.Fatalf("epoch log accounts for %d of %d tokens: %+v", sum, total, c.Epochs())
	}
	if st := c.Stats(); st.Tokens != total {
		t.Fatalf("Stats.Tokens = %d, issued %d", st.Tokens, total)
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[adaptive.Mode]string{
		adaptive.ModeDirect:  "direct",
		adaptive.ModeCombine: "combine",
		adaptive.ModeNetwork: "network",
		adaptive.ModeLinear:  "linear",
		adaptive.Mode(9):     "mode(9)",
	} {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int32(m), got, want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := adaptive.New(nil, adaptive.Options{}); err == nil {
		t.Error("nil network accepted")
	}
	c := newCounter(t, 2, adaptive.Options{})
	if err := c.SwitchTo(adaptive.Mode(7)); err == nil {
		t.Error("unknown mode accepted")
	}
	if c.Mode() != adaptive.ModeDirect {
		t.Errorf("fresh counter in mode %v, want direct", c.Mode())
	}
}

// TestQuiescentSwitchMatrix walks every width through a full rotation of
// quiescent mode switches — each switch happens with no token in flight
// — and asserts the values issued across all regimes still form one
// gapless step-property sequence, with the epoch log conserving every
// token.
func TestQuiescentSwitchMatrix(t *testing.T) {
	rotation := []adaptive.Mode{
		adaptive.ModeCombine, adaptive.ModeNetwork, adaptive.ModeLinear,
		adaptive.ModeDirect, adaptive.ModeNetwork, adaptive.ModeLinear,
		adaptive.ModeCombine, adaptive.ModeDirect,
	}
	for _, width := range matrixWidths {
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			c := newCounter(t, width, adaptive.Options{})
			per := 3*width + 5
			var vals []int64
			var tok int32
			for phase := 0; phase <= len(rotation); phase++ {
				for i := 0; i < per; i++ {
					vals = append(vals, c.Next(int(tok)%width, 0, tok, nil))
					tok++
				}
				if phase < len(rotation) {
					if err := c.SwitchTo(rotation[phase]); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkValues(t, vals, width)
			checkConservation(t, c, int64(len(vals)))
			if st := c.Stats(); st.Switches < int64(len(rotation)) {
				t.Errorf("forced %d switches, counted %d", len(rotation), st.Switches)
			}
		})
	}
}

// TestConcurrentSwitchMatrix forces mode switches while worker
// goroutines are drawing values: the drain-then-switch gate must make
// every transition invisible — no duplicate, no gap, no step-property
// breach — at every width.
func TestConcurrentSwitchMatrix(t *testing.T) {
	rotation := []adaptive.Mode{
		adaptive.ModeCombine, adaptive.ModeNetwork, adaptive.ModeLinear, adaptive.ModeDirect,
	}
	for _, width := range matrixWidths {
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			c := newCounter(t, width, adaptive.Options{})
			const workers = 8
			const per = 64
			vals := make([]int64, workers*per)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						tok := int32(w*per + i)
						vals[tok] = c.Next(w%width, int32(w), tok, nil)
					}
				}(w)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			for i := 0; ; i++ {
				select {
				case <-done:
					checkValues(t, vals, width)
					checkConservation(t, c, workers*per)
					return
				default:
					if err := c.SwitchTo(rotation[i%len(rotation)]); err != nil {
						t.Error(err)
					}
					time.Sleep(200 * time.Microsecond)
				}
			}
		})
	}
}

// TestSwitchStorm oscillates the regime as fast as the drain protocol
// allows — back-to-back forced switches with zero settle time — under
// concurrent load. The storm is the adversarial schedule for the epoch
// gate: every entry races a closing or reopening gate. The oversubscribed
// case bounds drain liveness: 256 goroutines on GOMAXPROCS(2), so the
// in-flight census is large and its members compete for two CPUs. Every
// drain-then-switch — linear epochs included, where the in-flight set
// releases in value order — must return within drainBound. The bound is
// generous: a drain waits for at most 256 tokens of a few microseconds
// each, so only a drain that stalls on descheduled goroutines nears it.
func TestSwitchStorm(t *testing.T) {
	const (
		width      = 4
		drainBound = 2 * time.Second
	)
	for _, tc := range []struct {
		name         string
		workers, per int
		maxprocs     int // 0 leaves GOMAXPROCS alone
	}{
		{"4-workers", 4, 128, 0},
		{"256-workers-2-procs", 256, 64, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.maxprocs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.maxprocs))
			}
			c := newCounter(t, width, adaptive.Options{})
			vals := make([]int64, tc.workers*tc.per)
			start := make(chan struct{}) // closed once the storm is under way
			var wg sync.WaitGroup
			for w := 0; w < tc.workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					<-start
					for i := 0; i < tc.per; i++ {
						tok := int32(w*tc.per + i)
						vals[tok] = c.Next(w%width, int32(w), tok, nil)
					}
				}(w)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			var (
				storms  int
				slowest time.Duration
			)
			stormed := make(chan error)
			go func() {
				modes := []adaptive.Mode{
					adaptive.ModeNetwork, adaptive.ModeLinear, adaptive.ModeDirect, adaptive.ModeCombine,
				}
				for i := 0; ; i++ {
					select {
					case <-done:
						close(stormed)
						return
					default:
					}
					t0 := time.Now()
					if err := c.SwitchTo(modes[i%len(modes)]); err != nil {
						stormed <- err
						return
					}
					slowest = max(slowest, time.Since(t0))
					if storms++; storms == 1 {
						close(start)
					}
				}
			}()
			select {
			case err, ok := <-stormed:
				if ok {
					t.Fatal(err)
				}
			case <-time.After(60 * time.Second):
				t.Fatalf("switch storm hung in mode %v", c.Mode())
			}
			t.Logf("survived %d forced switches; slowest %v", storms, slowest)
			if slowest > drainBound {
				t.Fatalf("a SwitchTo took %v, bound %v", slowest, drainBound)
			}
			checkValues(t, vals, width)
			checkConservation(t, c, int64(tc.workers*tc.per))
		})
	}
}

// TestControllerEscalates runs concurrent load over tiny thresholds so
// the free-running controller can escalate away from the direct counter
// on its own, and checks that counting stays exact whichever regimes it
// visits. Whether it escalates is scheduling-dependent; the escalation
// policy itself is pinned by the deterministic TestDecide.
func TestControllerEscalates(t *testing.T) {
	const width = 4
	c := newCounter(t, width, adaptive.Options{Window: 64})
	adaptive.SetThresholds(c, 1, 2, 6)
	const workers = 16
	const per = 256
	vals := make([]int64, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hold := func(topo.NodeID) { time.Sleep(2 * time.Microsecond) }
			for i := 0; i < per; i++ {
				tok := int32(w*per + i)
				vals[tok] = c.Next(w%width, int32(w), tok, hold)
			}
		}(w)
	}
	wg.Wait()
	checkValues(t, vals, width)
	checkConservation(t, c, workers*per)
	st := c.Stats()
	t.Logf("controller: %d switches, per-mode tokens %v", st.Switches, st.PerMode)
}

// TestStatsPartition checks the per-mode tally partition: every issued
// token is attributed to exactly one regime, across all four regimes.
func TestStatsPartition(t *testing.T) {
	c := newCounter(t, 4, adaptive.Options{})
	var tok int32
	for _, m := range []adaptive.Mode{
		adaptive.ModeDirect, adaptive.ModeCombine, adaptive.ModeNetwork, adaptive.ModeLinear,
	} {
		if err := c.SwitchTo(m); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			c.Next(int(tok)%4, 0, tok, nil)
			tok++
		}
	}
	st := c.Stats()
	if got := st.PerMode[0] + st.PerMode[1] + st.PerMode[2] + st.PerMode[3]; got != st.Tokens || st.Tokens != int64(tok) {
		t.Fatalf("per-mode partition %v sums to %d, issued %d", st.PerMode, got, tok)
	}
	for m, n := range st.PerMode {
		if n != 40 {
			t.Errorf("mode %v served %d tokens, want 40", adaptive.Mode(m), n)
		}
	}
}

// TestAdaptiveStressMatrix is the lincheck stress-matrix entry for the
// adaptive engine: the full stress driver routes every operation through
// the Front seam while the controller runs free, over a width × worker
// grid. Linearizability violations are allowed — with injected delays
// they are the paper's expected behaviour — but the permutation must be
// exact. A flight recorder rides along as the run's tracer; a breach
// trips it, so violations produce flight-recorder dumps like the other
// engines' harnesses.
func TestAdaptiveStressMatrix(t *testing.T) {
	for _, width := range []int{1, 2, 8} {
		for _, procs := range []int{4, 32, 128} {
			t.Run(fmt.Sprintf("w%d/p%d", width, procs), func(t *testing.T) {
				n, err := shm.Compile(buildGraph(t, width), shm.Options{Kind: shm.KindMCS})
				if err != nil {
					t.Fatal(err)
				}
				front, err := adaptive.New(n, adaptive.Options{Window: 128})
				if err != nil {
					t.Fatal(err)
				}
				adaptive.SetThresholds(front, 1, 6, 48)
				ops := 4 * procs
				if ops < 256 {
					ops = 256
				}
				flight := obs.NewFlight(obs.Meta{
					Engine: "shm-adaptive", Unit: "ns", Width: width,
				}, procs, 64)
				flight.SetAutoDump(filepath.Join(t.TempDir(), "adaptive.flight.jsonl"))
				res, err := shm.Stress(shm.StressConfig{
					Net: n, Workers: procs, Ops: ops, Seed: int64(width*1000 + procs),
					DelayedFrac: 0.25, Delay: 20 * time.Microsecond,
					Front:  front,
					Tracer: flight,
				})
				if err != nil {
					t.Fatal(err)
				}
				seen := make([]bool, ops)
				for _, op := range res.Ops {
					if op.Value < 0 || op.Value >= int64(ops) || seen[op.Value] {
						if w, ok := lincheck.FirstWitness(res.Ops); ok {
							t.Logf("first inversion witness: %s", w)
						}
						if path, _ := flight.Trip("adaptive-violation"); path != "" {
							t.Logf("flight dump written to %s", path)
						}
						t.Fatalf("value %d duplicated or out of range [0,%d)", op.Value, ops)
					}
					seen[op.Value] = true
				}
				st := front.Stats()
				if st.Tokens != int64(ops) {
					t.Fatalf("front served %d tokens, ran %d ops", st.Tokens, ops)
				}
			})
		}
	}
}

// TestAdaptiveQuiescentLinearizable checks the sequential guarantee: a
// single undelayed worker never leaves the direct counter, and the run
// is fully linearizable.
func TestAdaptiveQuiescentLinearizable(t *testing.T) {
	n, err := shm.Compile(buildGraph(t, 4), shm.Options{Kind: shm.KindMCS})
	if err != nil {
		t.Fatal(err)
	}
	front, err := adaptive.New(n, adaptive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := shm.Stress(shm.StressConfig{Net: n, Workers: 1, Ops: 500, Seed: 3, Front: front})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Linearizable() {
		t.Fatalf("sequential adaptive run not linearizable: %s", res.Report)
	}
	if m := front.Mode(); m != adaptive.ModeDirect {
		t.Errorf("single undelayed worker escalated to %v", m)
	}
}

// drawAll issues tokens [from, to) sequentially with a fast-fail
// watchdog: a mis-seeded ModeLinear turn counter would hang Next forever
// waiting for a turn value the epoch's backend will never issue, and the
// watchdog turns that hang into a prompt failure instead of a package
// timeout.
func drawAll(t *testing.T, c *adaptive.Counter, width int, from, to int32) []int64 {
	t.Helper()
	out := make([]int64, 0, to-from)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for tok := from; tok < to; tok++ {
			out = append(out, c.Next(int(tok)%width, 0, tok, nil))
		}
	}()
	select {
	case <-done:
		return out
	case <-time.After(30 * time.Second):
		t.Fatalf("tokens [%d,%d) hung in mode %v: turn counter not seeded for the epoch", from, to, c.Mode())
		return nil
	}
}

// TestLinearTurnReset checks the per-epoch turn counter across regime
// switches: every re-entry into ModeLinear must reseed the turn from the
// new epoch's backend start, or the first waiting token of the second
// linear epoch would spin on a turn value that already passed.
func TestLinearTurnReset(t *testing.T) {
	const width = 4
	c := newCounter(t, width, adaptive.Options{})
	var vals []int64
	var tok int32
	for _, m := range []adaptive.Mode{
		adaptive.ModeLinear,  // epoch 1: turn seeded from a zero backend
		adaptive.ModeDirect,  // direct tokens advance only the FAA counter
		adaptive.ModeLinear,  // re-entry: backend resumed mid-sequence
		adaptive.ModeNetwork, // network tokens advance the shared backend...
		adaptive.ModeLinear,  // ...so this reseed crosses unwaited values
	} {
		if err := c.SwitchTo(m); err != nil {
			t.Fatal(err)
		}
		vals = append(vals, drawAll(t, c, width, tok, tok+21)...)
		tok += 21
	}
	checkValues(t, vals, width)
	checkConservation(t, c, int64(len(vals)))
}

// TestLinearBelowStartsLinear checks the guaranteed-ordering contract of
// Options.LinearBelow: the counter starts in ModeLinear (the guarantee
// holds from the first token), a negative band is rejected, and the zero
// value leaves the default ModeDirect start untouched.
func TestLinearBelowStartsLinear(t *testing.T) {
	c := newCounter(t, 4, adaptive.Options{LinearBelow: 64})
	if m := c.Mode(); m != adaptive.ModeLinear {
		t.Fatalf("LinearBelow counter starts in %v, want linear", m)
	}
	vals := drawAll(t, c, 4, 0, 32)
	checkValues(t, vals, 4)
	if c2 := newCounter(t, 4, adaptive.Options{}); c2.Mode() != adaptive.ModeDirect {
		t.Errorf("default counter starts in %v, want direct", c2.Mode())
	}
	n, err := shm.Compile(buildGraph(t, 4), shm.Options{Kind: shm.KindMCS})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adaptive.New(n, adaptive.Options{LinearBelow: -1}); err == nil {
		t.Error("negative LinearBelow accepted")
	}
}

// TestLinearBelowNeverVotesUnguaranteed pins the controller's
// guaranteed-ordering override under live load: with LinearBelow far
// above any reachable occupancy, a free-running controller may move
// between direct and linear but must never serve a token from the
// unguaranteed combine or network regimes, and counting stays exact.
// Which of direct and linear it visits is scheduling-dependent; that
// policy is pinned by the deterministic TestDecide.
func TestLinearBelowNeverVotesUnguaranteed(t *testing.T) {
	const width = 4
	c := newCounter(t, width, adaptive.Options{Window: 64, LinearBelow: 1 << 20})
	adaptive.SetThresholds(c, 1, 2, 6)
	const workers = 16
	const per = 256
	vals := make([]int64, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hold := func(topo.NodeID) { time.Sleep(2 * time.Microsecond) }
			for i := 0; i < per; i++ {
				tok := int32(w*per + i)
				vals[tok] = c.Next(w%width, int32(w), tok, hold)
			}
		}(w)
	}
	wg.Wait()
	checkValues(t, vals, width)
	checkConservation(t, c, workers*per)
	st := c.Stats()
	t.Logf("controller: %d switches, per-mode tokens %v", st.Switches, st.PerMode)
	if n := st.PerMode[adaptive.ModeCombine] + st.PerMode[adaptive.ModeNetwork]; n != 0 {
		t.Errorf("guaranteed-ordering run served %d tokens from unguaranteed regimes: %v", n, st.PerMode)
	}
}

// TestLinearZeroViolations is the lincheck entry for the guaranteed
// regime (the race matrix runs it under -race): under the same per-node
// W-anomaly injection that makes the bare network return values out of
// real-time order, a counter pinned in ModeLinear must produce zero
// non-linearizable operations. The bare-network contrast is reported,
// and enforced under COUNTNET_STRICT_TIMING — whether the anomaly
// actually bites in a given run is scheduling-dependent, the guarantee
// side never is.
func TestLinearZeroViolations(t *testing.T) {
	const width = 8
	const workers = 8
	const ops = 800
	run := func(front shm.Front) *shm.StressResult {
		n, err := shm.Compile(buildGraph(t, width), shm.Options{Kind: shm.KindMCS})
		if err != nil {
			t.Fatal(err)
		}
		// RandomDelay pauses every worker uniform [0, Delay] per node, so
		// tokens cross the network at genuinely different speeds — the
		// anomaly shape that drives the bare network's misordering — and
		// no worker subset can drain the shared op pool undelayed.
		res, err := shm.Stress(shm.StressConfig{
			Net: n, Workers: workers, Ops: ops, Seed: 7,
			RandomDelay: true, Delay: 30 * time.Microsecond, Front: front,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	n, err := shm.Compile(buildGraph(t, width), shm.Options{Kind: shm.KindMCS})
	if err != nil {
		t.Fatal(err)
	}
	// Window 1<<20 keeps the controller out: every operation runs inside
	// a ModeLinear epoch, so the report is exactly the regime's guarantee.
	front, err := adaptive.New(n, adaptive.Options{LinearBelow: 1, Window: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	linRes := run(front)
	if linRes.Report.NonLinearizable > 0 {
		if w, ok := lincheck.FirstWitness(linRes.Ops); ok {
			t.Logf("witness: %s", w)
		}
		t.Fatalf("ModeLinear produced violations: %s", linRes.Report)
	}
	if m := front.Mode(); m != adaptive.ModeLinear {
		t.Fatalf("pinned counter drifted to %v", m)
	}

	bareRes := run(nil)
	t.Logf("bare network under the same anomalies: %s", bareRes.Report)
	if bareRes.Report.NonLinearizable == 0 && os.Getenv("COUNTNET_STRICT_TIMING") != "" {
		t.Error("W-anomaly injection produced no bare-network violations to contrast against")
	}
}
