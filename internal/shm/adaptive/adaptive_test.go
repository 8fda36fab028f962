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
// are exactly the step-property counts (the step property).
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

func TestModeString(t *testing.T) {
	for m, want := range map[adaptive.Mode]string{
		adaptive.ModeDirect: "direct",
		adaptive.ModeLinear: "linear",
		adaptive.Mode(9):    "mode(9)",
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
	for _, m := range []adaptive.Mode{-1, 2, 7} {
		if err := c.SwitchTo(m); err == nil {
			t.Errorf("unknown mode %d accepted", int32(m))
		}
	}
	if c.Stats().Mode != adaptive.ModeDirect {
		t.Errorf("fresh counter in mode %v, want direct", c.Stats().Mode)
	}
}

// TestStatsPartition checks the per-mode tally partition on fixed-mode
// counters: every issued token is attributed to the mode the counter was
// built in, and none to the other.
func TestStatsPartition(t *testing.T) {
	for _, tc := range builtModes {
		c := newCounter(t, 4, tc.opts)
		const tokens = 40
		drawAll(t, c, 4, 0, tokens)
		st := c.Stats()
		if st.Mode != tc.mode || st.Tokens != tokens {
			t.Fatalf("%v counter: Stats %+v after %d tokens", tc.mode, st, tokens)
		}
		if got := st.PerMode[0] + st.PerMode[1]; got != st.Tokens || st.PerMode[tc.mode] != tokens {
			t.Errorf("%v counter: per-mode partition %v, issued %d", tc.mode, st.PerMode, tokens)
		}
	}
}

// builtModes lists each mode a counter can be built in with the options
// that build it.
var builtModes = []struct {
	mode adaptive.Mode
	opts adaptive.Options
}{
	{adaptive.ModeDirect, adaptive.Options{}},
	{adaptive.ModeLinear, adaptive.Options{LinearBelow: 1}},
}

// matrixWidths are the network widths the switch matrices cover.
var matrixWidths = []int{1, 2, 4, 8, 16, 32, 64}

// checkSwitchTo asserts SwitchTo's contract on a counter built in built:
// nil for the built mode, an error for any other, and the mode unchanged
// either way.
func checkSwitchTo(t *testing.T, c *adaptive.Counter, built, m adaptive.Mode) {
	t.Helper()
	err := c.SwitchTo(m)
	if m == built && err != nil {
		t.Errorf("SwitchTo(%v) on a %v counter: %v", m, built, err)
	}
	if m != built && err == nil {
		t.Errorf("SwitchTo(%v) on a %v counter returned nil", m, built)
	}
	if got := c.Stats().Mode; got != built {
		t.Errorf("mode %v after SwitchTo(%v), built in %v", got, m, built)
	}
}

// checkTokens asserts Stats at quiescence: total tokens issued, every one
// of them attributed to the built mode.
func checkTokens(t *testing.T, c *adaptive.Counter, total int64) {
	t.Helper()
	st := c.Stats()
	if st.Tokens != total || st.PerMode[st.Mode] != total {
		t.Fatalf("Stats %+v, issued %d tokens in %v", st, total, st.Mode)
	}
}

// TestQuiescentSwitchMatrix walks every width and built mode through a
// rotation of quiescent SwitchTo requests — each made with no token in
// flight — and asserts each request into the built mode succeeds, each
// other request is refused, and the values issued across all phases form
// one gapless step-property sequence with Stats exact at every phase.
func TestQuiescentSwitchMatrix(t *testing.T) {
	rotation := []adaptive.Mode{
		adaptive.ModeLinear, adaptive.ModeDirect, adaptive.ModeDirect,
		adaptive.ModeLinear, adaptive.ModeLinear, adaptive.ModeDirect,
		adaptive.ModeLinear, adaptive.ModeDirect,
	}
	for _, width := range matrixWidths {
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			for _, bm := range builtModes {
				c := newCounter(t, width, bm.opts)
				per := int32(3*width + 5)
				var vals []int64
				var tok int32
				for phase := 0; phase <= len(rotation); phase++ {
					vals = append(vals, drawAll(t, c, width, tok, tok+per)...)
					tok += per
					checkTokens(t, c, int64(tok))
					if phase < len(rotation) {
						checkSwitchTo(t, c, bm.mode, rotation[phase])
					}
				}
				checkValues(t, vals, width)
			}
		})
	}
}

// TestConcurrentSwitchMatrix makes SwitchTo requests while worker
// goroutines draw values, at every width and built mode: a request into
// the built mode returns nil at once, any other is refused, and neither
// disturbs the values — no duplicate, no gap, no step-property breach.
func TestConcurrentSwitchMatrix(t *testing.T) {
	rotation := []adaptive.Mode{adaptive.ModeLinear, adaptive.ModeDirect}
	for _, width := range matrixWidths {
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			for _, bm := range builtModes {
				c := newCounter(t, width, bm.opts)
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
				for i, running := 0, true; running; i++ {
					select {
					case <-done:
						running = false
					default:
						checkSwitchTo(t, c, bm.mode, rotation[i%len(rotation)])
						time.Sleep(200 * time.Microsecond)
					}
				}
				checkValues(t, vals, width)
				checkTokens(t, c, workers*per)
			}
		})
	}
}

// TestSwitchStorm makes back-to-back SwitchTo requests with zero settle
// time under concurrent load, on both built modes. The oversubscribed
// case runs 256 goroutines on GOMAXPROCS(2), so a ModeLinear counter's
// waiters park and compete for two CPUs while the storm runs. No request
// may block: each must return within stormBound, which only a SwitchTo
// that waited on the in-flight tokens could near.
func TestSwitchStorm(t *testing.T) {
	const (
		width      = 4
		stormBound = 2 * time.Second
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
			for _, bm := range builtModes {
				c := newCounter(t, width, bm.opts)
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
					modes := []adaptive.Mode{adaptive.ModeLinear, adaptive.ModeDirect}
					for i := 0; ; i++ {
						select {
						case <-done:
							close(stormed)
							return
						default:
						}
						m := modes[i%len(modes)]
						t0 := time.Now()
						err := c.SwitchTo(m)
						slowest = max(slowest, time.Since(t0))
						if (err == nil) != (m == bm.mode) {
							stormed <- fmt.Errorf("SwitchTo(%v) on a %v counter: %v", m, bm.mode, err)
							return
						}
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
					t.Fatalf("switch storm hung on a %v counter", bm.mode)
				}
				t.Logf("%v counter: %d SwitchTo requests; slowest %v", bm.mode, storms, slowest)
				if slowest > stormBound {
					t.Fatalf("a SwitchTo took %v, bound %v", slowest, stormBound)
				}
				checkValues(t, vals, width)
				checkTokens(t, c, int64(tc.workers*tc.per))
			}
		})
	}
}

// TestAdaptiveStressMatrix is the lincheck stress-matrix entry for the
// adaptive engine: the full stress driver routes every operation through
// the Front seam, over a width × worker × mode grid. Both modes are
// linearizable, so a violation is a failure, and so is any break in the
// permutation. A flight recorder rides along as the run's tracer; a
// breach trips it, so failures produce flight-recorder dumps like the
// other engines' harnesses.
func TestAdaptiveStressMatrix(t *testing.T) {
	for _, width := range []int{1, 2, 8} {
		for _, procs := range []int{4, 32, 128} {
			t.Run(fmt.Sprintf("w%d/p%d", width, procs), func(t *testing.T) {
				for _, mode := range []adaptive.Mode{adaptive.ModeDirect, adaptive.ModeLinear} {
					t.Run(mode.String(), func(t *testing.T) { stressOne(t, mode, width, procs) })
				}
			})
		}
	}
}

// stressOne is one cell of TestAdaptiveStressMatrix.
func stressOne(t *testing.T, mode adaptive.Mode, width, procs int) {
	n, err := shm.Compile(buildGraph(t, width), shm.Options{Kind: shm.KindMCS})
	if err != nil {
		t.Fatal(err)
	}
	var opts adaptive.Options
	if mode == adaptive.ModeLinear {
		opts.LinearBelow = 1
	}
	front, err := adaptive.New(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	ops := max(4*procs, 256)
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
	fail := func(format string, args ...any) {
		t.Helper()
		if w, ok := lincheck.FirstWitness(res.Ops); ok {
			t.Logf("first inversion witness: %s", w)
		}
		if path, _ := flight.Trip("adaptive-violation"); path != "" {
			t.Logf("flight dump written to %s", path)
		}
		t.Fatalf(format, args...)
	}
	seen := make([]bool, ops)
	for _, op := range res.Ops {
		if op.Value < 0 || op.Value >= int64(ops) || seen[op.Value] {
			fail("value %d duplicated or out of range [0,%d)", op.Value, ops)
		}
		seen[op.Value] = true
	}
	if !res.Report.Linearizable() {
		fail("%v run not linearizable: %s", mode, res.Report)
	}
	st := front.Stats()
	if st.Tokens != int64(ops) || st.PerMode[mode] != st.Tokens {
		t.Fatalf("front served %d tokens, %d of them in %v; ran %d ops", st.Tokens, st.PerMode[mode], mode, ops)
	}
}

// TestAdaptiveQuiescentLinearizable checks the sequential guarantee: a
// default counter serves a single undelayed worker from the direct
// counter, and the run is fully linearizable.
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
	if m := front.Stats().Mode; m != adaptive.ModeDirect {
		t.Errorf("default counter ran in %v, want direct", m)
	}
}

// drawAll issues tokens [from, to) sequentially with a fast-fail
// watchdog: a ModeLinear turn that waits for a value the network never
// issues would hang Next forever, and the watchdog turns that hang into
// a prompt failure instead of a package timeout.
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
		t.Fatalf("tokens [%d,%d) hung in mode %v", from, to, c.Stats().Mode)
		return nil
	}
}

// TestLinearBelowStartsLinear checks the guaranteed-ordering contract of
// Options.LinearBelow: the counter starts in ModeLinear (the guarantee
// holds from the first token), a negative band is rejected, and the zero
// value leaves the default ModeDirect start untouched.
func TestLinearBelowStartsLinear(t *testing.T) {
	c := newCounter(t, 4, adaptive.Options{LinearBelow: 64})
	if m := c.Stats().Mode; m != adaptive.ModeLinear {
		t.Fatalf("LinearBelow counter starts in %v, want linear", m)
	}
	vals := drawAll(t, c, 4, 0, 32)
	checkValues(t, vals, 4)
	if c2 := newCounter(t, 4, adaptive.Options{}); c2.Stats().Mode != adaptive.ModeDirect {
		t.Errorf("default counter starts in %v, want direct", c2.Stats().Mode)
	}
	n, err := shm.Compile(buildGraph(t, 4), shm.Options{Kind: shm.KindMCS})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adaptive.New(n, adaptive.Options{LinearBelow: -1}); err == nil {
		t.Error("negative LinearBelow accepted")
	}
}

// TestLinearZeroViolations is the lincheck entry for the guaranteed
// mode (the race matrix runs it under -race): under the same per-node
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
	// A counter's mode is fixed when it is built, so every operation runs
	// in ModeLinear, and the report is exactly the mode's guarantee.
	front, err := adaptive.New(n, adaptive.Options{LinearBelow: 1})
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
	if m := front.Stats().Mode; m != adaptive.ModeLinear {
		t.Fatalf("pinned counter drifted to %v", m)
	}

	bareRes := run(nil)
	t.Logf("bare network under the same anomalies: %s", bareRes.Report)
	if bareRes.Report.NonLinearizable == 0 && os.Getenv("COUNTNET_STRICT_TIMING") != "" {
		t.Error("W-anomaly injection produced no bare-network violations to contrast against")
	}
}
