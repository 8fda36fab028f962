package adaptive_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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
	if c.Mode() != adaptive.ModeDirect {
		t.Errorf("fresh counter in mode %v, want direct", c.Mode())
	}
}

// TestQuiescentSwitchMatrix walks every width through a rotation of
// quiescent mode switches — each switch happens with no token in flight
// — and asserts the values issued across both modes still form one
// gapless step-property sequence, with the epoch log conserving every
// token. The rotation also rolls each mode into itself, which closes an
// epoch without counting a switch.
func TestQuiescentSwitchMatrix(t *testing.T) {
	rotation := []adaptive.Mode{
		adaptive.ModeLinear, adaptive.ModeDirect, adaptive.ModeDirect,
		adaptive.ModeLinear, adaptive.ModeLinear, adaptive.ModeDirect,
		adaptive.ModeLinear, adaptive.ModeDirect,
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
			if st := c.Stats(); st.Switches != 6 {
				t.Errorf("forced 6 mode changes, counted %d", st.Switches)
			}
		})
	}
}

// TestConcurrentSwitchMatrix forces mode switches while worker
// goroutines are drawing values: the drain-then-switch gate must make
// every transition invisible — no duplicate, no gap, no step-property
// breach — at every width.
func TestConcurrentSwitchMatrix(t *testing.T) {
	rotation := []adaptive.Mode{adaptive.ModeLinear, adaptive.ModeDirect}
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

// TestSwitchStorm oscillates the mode as fast as the drain protocol
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
				modes := []adaptive.Mode{adaptive.ModeLinear, adaptive.ModeDirect}
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

// TestSwitchDrainsParkedLinear forces a switch while ModeLinear waiters
// are parked: the holder of the smallest value stalls after drawing it,
// the tokens behind it exhaust their yield budget and park, and only
// then does SwitchTo close the gate. The drain must wait for the held
// token, then terminate as the release chain wakes the parked waiters in
// value order, and the values must stay a gapless permutation across the
// switch.
func TestSwitchDrainsParkedLinear(t *testing.T) {
	const (
		width   = 4
		waiters = 16
	)
	g := buildGraph(t, width)
	n, err := shm.Compile(g, shm.Options{Kind: shm.KindMCS})
	if err != nil {
		t.Fatal(err)
	}
	c, err := adaptive.New(n, adaptive.Options{LinearBelow: 1})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, waiters+1)
	held, release := make(chan struct{}), make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock() // a failed check must not leave the holder stalled
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		vals[0] = c.Next(0, 0, 0, func(id topo.NodeID) {
			if g.KindOf(id) == topo.KindCounter {
				close(held)
				<-release
			}
		})
	}()
	<-held
	for w := 1; w <= waiters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vals[w] = c.Next(w%width, int32(w), int32(w), nil)
		}(w)
	}
	deadline := time.Now().Add(30 * time.Second)
	for parkedWaiters() < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters parked behind the held token", parkedWaiters(), waiters)
		}
		time.Sleep(time.Millisecond)
	}
	switched := make(chan error, 1)
	go func() { switched <- c.SwitchTo(adaptive.ModeDirect) }()
	select {
	case err := <-switched:
		t.Fatalf("SwitchTo returned (%v) while a token was still in flight", err)
	case <-time.After(10 * time.Millisecond):
	}
	unblock()
	select {
	case err := <-switched:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain over parked ModeLinear waiters did not terminate")
	}
	wg.Wait()
	if m := c.Mode(); m != adaptive.ModeDirect {
		t.Fatalf("mode %v after SwitchTo(direct)", m)
	}
	vals = append(vals, drawAll(t, c, width, waiters+1, waiters+9)...)
	checkValues(t, vals, width)
	checkConservation(t, c, int64(len(vals)))
}

// parkedWaiters counts the goroutines blocked in shm.Turn's park, read
// from a dump of every goroutine's stack.
func parkedWaiters() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	parked := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "[chan receive") && strings.Contains(g, "shm.(*Turn).park(") {
			parked++
		}
	}
	return parked
}

// TestStatsPartition checks the per-mode tally partition: every issued
// token is attributed to exactly one mode, across both modes.
func TestStatsPartition(t *testing.T) {
	c := newCounter(t, 4, adaptive.Options{})
	var tok int32
	for _, m := range []adaptive.Mode{
		adaptive.ModeDirect, adaptive.ModeLinear, adaptive.ModeDirect, adaptive.ModeLinear,
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
	if got := st.PerMode[0] + st.PerMode[1]; got != st.Tokens || st.Tokens != int64(tok) {
		t.Fatalf("per-mode partition %v sums to %d, issued %d", st.PerMode, got, tok)
	}
	for m, n := range st.PerMode {
		if n != 80 {
			t.Errorf("mode %v served %d tokens, want 80", adaptive.Mode(m), n)
		}
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
	if m := front.Mode(); m != adaptive.ModeDirect {
		t.Errorf("default counter ran in %v, want direct", m)
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

// TestLinearTurnReset checks the per-epoch turn counter across mode
// switches: every re-entry into ModeLinear must reseed the turn from the
// new epoch's backend start, or the first waiting token of the second
// linear epoch would spin on a turn value that already passed. A linear
// roll into itself reseeds too.
func TestLinearTurnReset(t *testing.T) {
	const width = 4
	c := newCounter(t, width, adaptive.Options{})
	var vals []int64
	var tok int32
	for _, m := range []adaptive.Mode{
		adaptive.ModeLinear, // epoch 1: turn seeded from a zero backend
		adaptive.ModeDirect, // direct tokens advance only the FAA counter
		adaptive.ModeLinear, // re-entry: backend resumed mid-sequence
		adaptive.ModeLinear, // roll in place: reseed from the same backend
		adaptive.ModeDirect,
		adaptive.ModeLinear,
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
	// Only SwitchTo changes a counter's mode, so every operation runs
	// inside the ModeLinear epoch the counter starts in, and the report is
	// exactly the mode's guarantee.
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
	if m := front.Mode(); m != adaptive.ModeLinear {
		t.Fatalf("pinned counter drifted to %v", m)
	}

	bareRes := run(nil)
	t.Logf("bare network under the same anomalies: %s", bareRes.Report)
	if bareRes.Report.NonLinearizable == 0 && os.Getenv("COUNTNET_STRICT_TIMING") != "" {
		t.Error("W-anomaly injection produced no bare-network violations to contrast against")
	}
}
