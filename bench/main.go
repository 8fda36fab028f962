// Command bench is the repository benchmark: it drives one of four
// closed-loop workloads from two client goroutines (GOMAXPROCS=2),
// times only the calls into the counter, checks every value it was
// handed, and prints the end-to-end metrics (-trace 0) or the per-layer
// metrics (-trace 1) as one JSON object on its last output line.
//
//	bash bench/run.sh --workload net-hot --seed 1 --seconds 5 --trace 0
//
// It also runs whole sets of such runs as separate processes (-set) and
// compares two sets metric by metric (-compare). See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

// perClient is each client's slot-log capacity: a round ends when its
// time is up or a client has made this many calls. It bounds the memory
// of a run (24 B per slot plus lincheck's copies) at about 100 MB.
const perClient = 1 << 19

// setup_s is the median time per build over timed batches of setupBatch
// builds each: setupWarm untimed batches, then setupFirst timed ones
// before the first round and setupPerRound after each timed round, so
// that the set-up samples span the run as the calls do. The fewest
// rounds give 101 batches.
const (
	setupBatch    = 10
	setupWarm     = 10
	setupFirst    = 21
	setupPerRound = 16
)

// Round counts of a -trace 0 run: at least minRounds timed rounds, more
// until the rounds have measured -seconds of calls, at most maxRounds.
const (
	minRounds = 5
	maxRounds = 100
)

type metricDef struct{ name, unit string }

// endToEnd are the -trace 0 metrics, perLayer the -trace 1 metrics;
// BENCHMARK.json declares the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_ns", "ns"},
	{"latency_p90_ns", "ns"},
}

var perLayer = []metricDef{
	{"latency_p99_ns", "ns"},
	{"nonlin_frac", "ratio"},
	{"allocs_per_op", "count"},
	{"failed_frac", "ratio"},
	{"harness.null_ns", "ns"},
	{"harness.share", "ratio"},
	{"harness.slowdown", "x"},
	{"api.cursor_ns", "ns"},
	{"toggle.atomic_ns", "ns"},
	{"toggle.mutex_ns", "ns"},
	{"toggle.mcs_ns", "ns"},
	{"toggle.prism_ns", "ns"},
	{"walk.bitonic8_ns", "ns"},
	{"counter.faa_ns", "ns"},
	{"gate.direct_ns", "ns"},
	{"gate.overhead_ns", "ns"},
	{"turn.filter_ns", "ns"},
	{"funnel.do_ns", "ns"},
	{"funnel.hit_rate", "ratio"},
	{"switch.drain_p50_ns", "ns"},
	{"switch.drain_p99_ns", "ns"},
	{"obs.metrics_slowdown", "x"},
	{"obs.tog_ns", "ns"},
	{"obs.c2c1", "ratio"},
	{"obs.nonlin_shift", "ratio"},
	{"lincheck.analyze_ns_per_op", "ns"},
	{"trace.head_ns", "ns"},
	{"trace.hop_p50_ns", "ns"},
	{"trace.hop_p99_ns", "ns"},
	{"trace.tail_p50_ns", "ns"},
	{"trace.tail_p99_ns", "ns"},
	{"trace.overhead_frac", "ratio"},
	{"trace.mode_share", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last output line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// errFailed reports a run whose output was printed but failed a check.
var errFailed = errors.New("correctness check failed")

func main() {
	runtime.GOMAXPROCS(clients)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: net-hot, adaptive-direct, linear or anomaly")
	seed := fs.Int64("seed", 1, "seed of the pre-generated client inputs")
	seconds := fs.Float64("seconds", 5, "seconds of calls to measure")
	trace := fs.Int("trace", 0, "0: untraced rounds, end-to-end metrics; 1: traced round and layer rows, per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write the kept spans here (.jsonl: JSON Lines, else Chrome trace_event)")
	setOut := fs.String("set", "", "run every workload with seeds 1..10 per set, each run a separate process, and write the sets here")
	sets := fs.Int("sets", 1, "with -set, how many sets to run")
	compare := fs.String("compare", "", "compare this prior set file with the set file given as argument (or its own first and last set)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *compare != "":
		return runCompare(out, *compare, fs.Args())
	case *setOut != "":
		return runSets(out, *setOut, *sets, *seconds)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	cfg := runConfig{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
		perClient: perClient, spans: *spans}
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %d nproc %d gomaxprocs %d clients %d %s\n",
		w.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), clients, runtime.Version())
	var res result
	switch *trace {
	case 0:
		res, err = measure(out, w, cfg)
	case 1:
		res, err = layers(out, w, cfg)
	default:
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return errFailed
	}
	return nil
}

// runConfig is one run's parameters.
type runConfig struct {
	seed      int64
	budget    time.Duration // calls to measure
	perClient int           // slot-log capacity per client
	spans     string        // -spans output path, "" for none
}

// setupLog is a run's timed set-up batches: each batch's time per build
// and the host slowdown measured just before it.
type setupLog struct{ perBuild, slow []float64 }

// time builds the workload's counter in n batches of setupBatch builds,
// logs them unless warm, and returns the last counter built. The
// collector runs between batches and is paused inside them: a collection
// that starts mid-batch would charge one batch with the garbage of many.
func (s *setupLog) time(w workload, n int, warm bool) (counter, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var k counter
	for i := 0; i < n; i++ {
		runtime.GC()
		slow := setupSlowdown()
		t := time.Now()
		for j := 0; j < setupBatch; j++ {
			var err error
			if k, err = w.build(); err != nil {
				return counter{}, fmt.Errorf("build %s: %w", w.name, err)
			}
		}
		if !warm {
			s.perBuild = append(s.perBuild, time.Since(t).Seconds()/setupBatch)
			s.slow = append(s.slow, slow)
		}
	}
	return k, nil
}

// tally accumulates the correctness checks of a run's rounds.
type tally struct {
	issued    int64 // values handed out so far: the next round's range start
	attempted int64
	failed    int64
	nonlin    int64
	analyzed  int64
	analyzeNs int64
}

// check verifies the driver's last round: its values must be exactly the
// next gapless range, and a counter that guarantees linearizability must
// show no violation.
func (t *tally) check(d *driver, k counter) {
	n := int64(d.ops())
	t.failed += int64(d.gapless(t.issued))
	rep, took := d.analyze()
	if k.ad != nil && rep.NonLinearizable > 0 {
		t.failed += int64(rep.NonLinearizable)
	}
	t.nonlin += int64(rep.NonLinearizable)
	t.analyzed += n
	t.analyzeNs += took.Nanoseconds()
	t.issued += n
	t.attempted += n
}

// regime applies the workload's regime assertion to the counter's whole
// life: tokens served outside the asserted mode count as failed when
// they exceed the allowed share.
func (t *tally) regime(out io.Writer, k counter) float64 {
	share, outside := k.modeShare()
	if share < k.minShare {
		fmt.Fprintf(out, "FAIL regime: %.4f of tokens in %v, want >= %.2f\n", share, k.want, k.minShare)
		t.failed += outside
	}
	return share
}

func (t *tally) result(metrics map[string]metricValue) result {
	return result{Correct: t.failed == 0, Attempted: max(t.attempted, 1), Failed: t.failed, Metrics: metrics}
}

// measure is a -trace 0 run: setup, a discarded warm-up round, then
// timed untraced rounds on the same counter, each after a reference
// round and followed by more set-up batches. Each end-to-end metric is
// the median over rounds (or batches) of its value scaled to the
// reference host speed.
func measure(out io.Writer, w workload, cfg runConfig) (result, error) {
	var setup setupLog
	if _, err := setup.time(w, setupWarm, true); err != nil {
		return result{}, err
	}
	k, err := setup.time(w, setupFirst, false)
	if err != nil {
		return result{}, err
	}
	in := newInputs(cfg.seed, cfg.perClient, 8)
	d := newDriver(cfg.perClient)
	op := k.op(in)
	var t tally
	roundDur := cfg.budget / minRounds
	d.round(roundDur/2, op)
	t.check(d, k)
	warm := t.attempted

	var slow, thr, p50, p90 []float64
	var measured time.Duration
	var allocs uint64
	var beyond int
	for r := 0; r < minRounds || (measured < cfg.budget && r < maxRounds); r++ {
		slow = append(slow, d.slowdown())
		m0 := mallocs()
		d.round(roundDur, op)
		allocs += mallocs() - m0
		measured += time.Duration(d.span())
		thr = append(thr, d.throughput())
		h := d.latencies()
		p := h.percentile(90)
		p50 = append(p50, float64(h.percentile(50)))
		p90 = append(p90, float64(p))
		beyond += h.beyond(p)
		t.check(d, k)
		if _, err := setup.time(w, setupPerRound, false); err != nil {
			return result{}, err
		}
	}
	t.regime(out, k)
	timed := t.attempted - warm
	fmt.Fprintf(out, "rounds %d measured %.2fs calls %d (+%d warm-up) p90 rests on %d samples beyond it\n",
		len(thr), measured.Seconds(), timed, warm, beyond)
	fmt.Fprintf(out, "nonlin_frac %.5f allocs_per_op %.6f failed %d/%d lincheck %.0f ns/op\n",
		float64(t.nonlin)/float64(t.analyzed), float64(allocs)/float64(max(timed, 1)),
		t.failed, t.attempted, float64(t.analyzeNs)/float64(t.analyzed))
	fmt.Fprintf(out, "host slowdown: rounds median %.3f (min %.3f), set-up batches median %.3f\n",
		median(slow), slices.Min(slow), median(setup.slow))
	m := map[string]metricValue{}
	// put reports a metric's per-round values scaled to the reference
	// speed: times divide by the round's slowdown, rates multiply by it.
	put := func(name string, raw, slow []float64, rate bool) {
		xs := make([]float64, len(raw))
		for i, x := range raw {
			if rate {
				xs[i] = x * slow[i]
			} else {
				xs[i] = x / slow[i]
			}
		}
		m[name] = metricValue{Value: median(xs), Unit: unitOf(name)}
		q1, q3 := quartiles(xs)
		fmt.Fprintf(out, "%-18s %14.6g %-6s q1 %.6g q3 %.6g over %d; unscaled median %.6g\n",
			name, median(xs), unitOf(name), q1, q3, len(xs), median(raw))
	}
	put("setup_s", setup.perBuild, setup.slow, false)
	put("throughput_ops_s", thr, slow, true)
	put("latency_p50_ns", p50, slow, false)
	put("latency_p90_ns", p90, slow, false)
	return t.result(m), nil
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// printMetrics writes the metrics as aligned "name value unit" lines.
func printMetrics(out io.Writer, m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-28s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
