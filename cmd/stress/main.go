// Command stress runs the real-goroutine counterpart of the paper's
// benchmark: workers traverse a compiled counting network on the actual Go
// runtime, optionally pausing after every node (the paper's W delay), and
// the run is checked for linearizability violations against the monotonic
// clock. It also compares throughput against single-point counters.
//
//	stress -net dtree -width 32 -workers 64 -ops 100000 -frac 0.25 -delay 200us
//	stress -compare -workers 64 -ops 200000
//	stress -trace run.json -metrics - -pprof :6060
//	stress -engine shm-combine -workers 256 -width 8 -frac 1 -delay 20us -burn
//	stress -engine shm-adaptive -workers 256 -width 8
//	stress -engine shm-adaptive-linear -workers 64 -width 8
//	stress -engine msgnet -faults 0.05 -fault-seed 7 -delay 10us
//
// -engine names the engine by its conformance-corpus name, so a failing
// conformance engine can be rerun on its own. The four shm engines differ
// only in the front-end that hands each token its value
// (workload.FrontKind):
//
//   - shm: every token walks the network itself.
//   - shm-combine: tokens rendezvous in an elimination/combining funnel in
//     front of the network and a representative walks once for a whole
//     group (internal/shm/combine); the report adds the funnel's hit rate
//     and combining degree, and the same counters appear in /metrics.
//   - shm-adaptive: the adaptive front (internal/shm/adaptive) in
//     ModeDirect, serving every token from one fetch-and-add on a padded
//     word; it reports "built in direct" and the per-mode token tallies.
//   - shm-adaptive-linear: the same front built in its
//     guaranteed-linearizable waiting mode (ModeLinear, an shm.Filter:
//     traverse the network, then hold the response until every smaller
//     value has been returned); it reports "built in linear".
//
// With -engine msgnet the workload runs on the message-passing runtime
// instead, and -faults turns on deterministic chaos (internal/faults):
// drop rate = the given intensity, duplication and reordering at half of
// it, all seeded by -fault-seed so two runs inject the identical fault
// sequence. -delay then becomes the plan's per-hop link latency (the
// paper's W on the wire) and the run report gains the fault/retry tallies
// next to the usual (Tog+W)/Tog measure. A flag that does not apply to
// the chosen engine (-frac on msgnet, -faults on shm, ...) is rejected
// rather than ignored.
//
// With -trace the run's token events (enter, per-balancer traversal with
// wait duration, counter, exit) are exported as JSONL (.jsonl) or Chrome
// trace_event format (anything else; open in Perfetto). With -metrics the
// live metric family — toggle-wait histogram, the (Tog+W)/Tog ratio read
// from it, output fetch-and-add total, prism CAS retries — is dumped as
// plain text. -pprof serves net/http/pprof plus the same metrics at
// /metrics while running.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"countnet/internal/faults"
	"countnet/internal/lincheck"
	"countnet/internal/msgnet"
	"countnet/internal/obs"
	"countnet/internal/shm"
	"countnet/internal/stats"
	"countnet/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stress:", err)
		os.Exit(1)
	}
}

// engineOnly maps each flag that applies to one engine family alone to
// that family; every other flag applies to all engines.
var engineOnly = map[string]string{
	"frac": "shm", "random": "shm", "burn": "shm", "balancer": "shm", "seed": "shm", "pprof": "shm",
	"faults": "msgnet", "fault-seed": "msgnet", "flight": "msgnet",
}

// checkEngineFlags rejects an unknown engine name and any flag set on
// the command line that does not apply to the engine's family.
func checkEngineFlags(fs *flag.FlagSet, engine string) error {
	family := "msgnet"
	if engine != "msgnet" {
		if !slices.Contains(workload.Fronts, workload.FrontKind(engine)) {
			return fmt.Errorf("unknown engine %q", engine)
		}
		family = "shm"
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if want, ok := engineOnly[f.Name]; ok && want != family && err == nil {
			err = fmt.Errorf("-%s does not apply to -engine %s", f.Name, engine)
		}
	})
	return err
}

// toggleKinds are the toggle implementations -balancer names, each by
// its shm.Kind.String.
var toggleKinds = []shm.Kind{shm.KindMCS, shm.KindMutex, shm.KindAtomic}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("stress", flag.ContinueOnError)
	var (
		net     = fs.String("net", "bitonic", "bitonic, periodic, or dtree")
		width   = fs.Int("width", 32, "network width")
		workers = fs.Int("workers", 64, "concurrent goroutines")
		ops     = fs.Int("ops", 100000, "total operations")
		frac    = fs.Float64("frac", 0, "fraction of workers delayed after every node (paper's F)")
		delay   = fs.Duration("delay", 0, "per-node delay for delayed workers (paper's W)")
		random  = fs.Bool("random", false, "all workers pause uniform [0,delay] per node")
		burn    = fs.Bool("burn", false, "burn delays as busy work occupying the processor (models coherence stalls) instead of a cooperative pause")
		kind    = fs.String("balancer", shm.KindMCS.String(), fmt.Sprint("toggle implementation, one of ", toggleKinds))
		compare = fs.Bool("compare", false, "compare network throughput against single-point counters")
		grid    = fs.Bool("grid", false, "run the wall-clock analogue of the paper's Figure 5/6 grid")
		engine  = fs.String("engine", "shm", "execution engine: shm, shm-combine, shm-adaptive, shm-adaptive-linear, or msgnet")
		faultsF = fs.Float64("faults", 0, "msgnet fault intensity in [0,1]: drop rate, with dup/reorder at half (msgnet engine only)")
		faultSd = fs.Int64("fault-seed", 1, "seed for the deterministic fault plan")
		seed    = fs.Int64("seed", 1, "workload seed")
		trace   = fs.String("trace", "", "export token trace to this file (.jsonl, or Chrome trace_event otherwise)")
		flight  = fs.String("flight", "", "arm a flight recorder dumping the last events to this JSONL file on a liveness-valve trip or panic (msgnet engine)")
		metrics = fs.String("metrics", "", `write the plain-text metrics dump to this file ("-" for stdout)`)
		pprofA  = fs.String("pprof", "", "serve net/http/pprof and /metrics on this address while running")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		return compareCounters(w, *width, *workers, *ops)
	}
	if *grid {
		return realGrid(w, *frac, *ops, *seed)
	}
	if err := checkEngineFlags(fs, *engine); err != nil {
		return err
	}
	if *engine == "msgnet" {
		return runMsgnetStress(w, msgnetStressConfig{
			net: *net, width: *width, workers: *workers, ops: *ops,
			delay: *delay, intensity: *faultsF, faultSeed: *faultSd,
			trace: *trace, flight: *flight, metrics: *metrics,
		})
	}
	g, err := workload.NetKind(*net).Build(*width)
	if err != nil {
		return err
	}
	k := slices.IndexFunc(toggleKinds, func(k shm.Kind) bool { return k.String() == *kind })
	if k < 0 {
		return fmt.Errorf("unknown balancer %q", *kind)
	}
	n, err := shm.Compile(g, shm.Options{Kind: toggleKinds[k], Diffract: *net == "dtree"})
	if err != nil {
		return err
	}
	cfg := shm.StressConfig{
		Net: n, Workers: *workers, Ops: *ops,
		DelayedFrac: *frac, Delay: *delay, RandomDelay: *random, BurnDelay: *burn, Seed: *seed,
	}
	var ring *obs.Ring
	if *trace != "" {
		ring = obs.NewRing(*workers, 1<<16)
		cfg.Tracer = ring
	}
	if *trace != "" || *metrics != "" || *pprofA != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Front, err = workload.FrontKind(*engine).Build(n, cfg.Metrics); err != nil {
		return err
	}
	if *pprofA != "" {
		addr, stop, err := obs.Serve(*pprofA, cfg.Metrics)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(w, "pprof+metrics on http://%s (/debug/pprof/, /metrics)\n", addr)
	}
	res, err := shm.Stress(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s[%d] %s %s balancers, %d workers, %d ops, F=%.0f%%, W=%v\n",
		*net, *width, *engine, *kind, *workers, *ops, 100**frac, *delay)
	summarize(w, res.Ops, res.Elapsed, res.Report)
	if cfg.Metrics != nil {
		fmt.Fprintf(w, "measured Tog %.0fns, (Tog+W)/Tog = %.3f\n", res.Tog, res.AvgRatio)
	}
	if r := workload.FrontReport(cfg.Front); r != "" {
		fmt.Fprintln(w, r)
	}
	return writeOutputs(w, ring, *trace, obs.Meta{Engine: *engine, Unit: "ns", Net: *net, Width: *width}, cfg.Metrics, *metrics)
}

// msgnetStressConfig carries the msgnet-engine knobs from the flag set.
type msgnetStressConfig struct {
	net                 string
	width, workers, ops int
	delay               time.Duration
	intensity           float64
	faultSeed           int64
	trace, flight       string
	metrics             string
}

// runMsgnetStress drives the workload through the message-passing engine,
// optionally under a deterministic chaos plan, and reports the same
// throughput/latency/linearizability summary as the shm path plus the
// fault and retry tallies.
func runMsgnetStress(w io.Writer, cfg msgnetStressConfig) (err error) {
	g, err := workload.NetKind(cfg.net).Build(cfg.width)
	if err != nil {
		return err
	}
	plan := faults.Chaos(cfg.faultSeed, cfg.intensity, cfg.delay.Nanoseconds())
	plan.Net, plan.Width, plan.Procs, plan.Ops = cfg.net, cfg.width, cfg.workers, cfg.ops
	reg := obs.NewRegistry()
	meta := obs.Meta{Engine: "msgnet", Unit: "ns", Net: cfg.net, Width: cfg.width}
	var ring *obs.Ring
	if cfg.trace != "" {
		ring = obs.NewRing(cfg.workers, 1<<16)
	}
	var flight *obs.Ring
	if cfg.flight != "" {
		flight = obs.NewRing(cfg.workers, 1<<12)
		// Deferred before n.Close, so it runs after it: the recorder is
		// dumped from a quiescent network, and a panic anywhere below
		// still leaves the black box on disk.
		defer func() {
			r := recover()
			if r != nil {
				flight.Trip("panic")
			}
			if reason := flight.Tripped(); reason == "" {
				fmt.Fprintf(w, "flight recorder armed, never tripped (no dump written)\n")
			} else if derr := obs.Dump(cfg.flight, meta, reason, flight.Events()); derr != nil {
				err = errors.Join(err, derr)
			} else {
				fmt.Fprintf(w, "flight recorder tripped (%s): dump at %s\n", reason, cfg.flight)
			}
			if r != nil {
				panic(r)
			}
		}()
	}
	mopts := msgnet.Options{
		Buffer:  1,
		Flight:  flight,
		Metrics: reg,
		EffWait: float64(cfg.delay.Nanoseconds()),
		Faults:  plan,
	}
	if ring != nil {
		mopts.Tracer = ring
	}
	n, err := msgnet.StartOpts(g, mopts)
	if err != nil {
		return err
	}
	defer n.Close()
	base := time.Now()
	ops, err := shm.Drive(base, cfg.workers, cfg.ops, n.Next)
	if err != nil {
		return err
	}
	elapsed := time.Since(base)
	// Duplicated tokens may still be recording after every worker has its
	// value; no recorder is read before they stop.
	n.Close()
	fmt.Fprintf(w, "%s[%d] msgnet, %d workers, %d ops, faults=%.3g (seed %d), W=%v\n",
		cfg.net, cfg.width, cfg.workers, cfg.ops, cfg.intensity, cfg.faultSeed, cfg.delay)
	summarize(w, ops, elapsed, lincheck.Analyze(ops))
	if r := n.Ratio(); r != nil {
		fmt.Fprintf(w, "measured Tog %.0fns, (Tog+W)/Tog = %.3f\n", r.Tog(), r.Value())
	}
	if inj := n.Faults(); inj != nil {
		st := inj.Stats()
		fmt.Fprintf(w, "faults: %d drops, %d dups, %d reorders, %d delays, %d partition-drops, %d crash-drops, %d stalls, %d forced\n",
			st.Drops, st.Dups, st.Reorders, st.Delays, st.PartitionDrops, st.CrashDrops, st.Stalled, st.Forced)
		fmt.Fprintf(w, "recovery: %d retries, %d duplicates suppressed\n", n.Retries(), n.Dedups())
	}
	return writeOutputs(w, ring, cfg.trace, meta, reg, cfg.metrics)
}

// summarize prints the report lines every engine shares: throughput, the
// latency distribution and the linearizability verdict.
func summarize(w io.Writer, ops []lincheck.Op, elapsed time.Duration, rep lincheck.Report) {
	fmt.Fprintf(w, "elapsed %v, %.0f ops/s\n", elapsed.Round(time.Millisecond), float64(len(ops))/elapsed.Seconds())
	lat := make([]int64, len(ops))
	for i, op := range ops {
		lat[i] = op.End - op.Start
	}
	fmt.Fprintf(w, "latency (ns): %s\n", stats.Summarize(lat))
	fmt.Fprintf(w, "linearizability: %s\n", rep)
}

// writeOutputs exports the trace ring (when tracing) to tracePath and
// dumps reg as plain text to metricsPath ("-" for w; "" for none).
func writeOutputs(w io.Writer, ring *obs.Ring, tracePath string, meta obs.Meta, reg *obs.Registry, metricsPath string) error {
	if ring != nil {
		if dropped := ring.Overwritten(); dropped > 0 {
			fmt.Fprintf(w, "trace ring overwrote %d events (oldest dropped)\n", dropped)
		}
		if err := obs.WriteFile(tracePath, meta, ring.Events()); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace written to %s\n", tracePath)
	}
	if metricsPath == "" {
		return nil
	}
	if metricsPath == "-" {
		reg.WriteText(w)
		return nil
	}
	f, err := os.Create(metricsPath)
	if err != nil {
		return err
	}
	reg.WriteText(f)
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "metrics written to %s\n", metricsPath)
	return nil
}

// realGrid runs the wall-clock analogue of the paper's benchmark grid and
// prints one row per cell.
func realGrid(w io.Writer, frac float64, ops int, seed int64) error {
	if frac == 0 {
		frac = 0.25
	}
	fmt.Fprintf(w, "wall-clock grid (goroutines), F=%.0f%%, %d ops per cell\n", 100*frac, ops)
	fmt.Fprintf(w, "%-34s %12s %10s %12s\n", "cell", "ops/s", "viol%", "p99-latency")
	for _, spec := range workload.RealGrid(frac, ops, seed) {
		res, err := spec.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", spec, err)
		}
		lat := make([]int64, len(res.Ops))
		for i, op := range res.Ops {
			lat[i] = op.End - op.Start
		}
		sum := stats.Summarize(lat)
		fmt.Fprintf(w, "%-34s %12.0f %9.3f%% %12v\n",
			spec, res.Throughput, 100*res.Report.Ratio(), time.Duration(sum.P99).Round(time.Microsecond))
	}
	return nil
}

// compareCounters races the counting networks against a mutex counter and a
// bare atomic fetch-and-add, the classic motivation for counting networks.
func compareCounters(w io.Writer, width, workers, ops int) error {
	type result struct {
		name string
		tput float64
	}
	var results []result

	runNet := func(name string, kind workload.NetKind, diffract bool) error {
		g, err := kind.Build(width)
		if err != nil {
			return err
		}
		n, err := shm.Compile(g, shm.Options{Kind: shm.KindMCS, Diffract: diffract})
		if err != nil {
			return err
		}
		res, err := shm.Stress(shm.StressConfig{Net: n, Workers: workers, Ops: ops, Seed: 1})
		if err != nil {
			return err
		}
		results = append(results, result{name, res.Throughput})
		return nil
	}
	if err := runNet(fmt.Sprintf("bitonic[%d]+mcs", width), workload.Bitonic, false); err != nil {
		return err
	}
	if err := runNet(fmt.Sprintf("dtree[%d]+prism", width), workload.DTree, true); err != nil {
		return err
	}
	// The single-point counters run on the same driver as the network
	// rows, so all four pay the same harness.
	var mu sync.Mutex
	var locked int64
	var faa atomic.Int64
	points := []struct {
		name string
		next func(proc, tok int32) (int64, error)
	}{
		{"mutex counter", func(int32, int32) (int64, error) {
			mu.Lock()
			v := locked
			locked++
			mu.Unlock()
			return v, nil
		}},
		{"atomic counter", func(int32, int32) (int64, error) { return faa.Add(1) - 1, nil }},
	}
	for _, p := range points {
		base := time.Now()
		if _, err := shm.Drive(base, workers, ops, p.next); err != nil {
			return err
		}
		results = append(results, result{p.name, float64(ops) / time.Since(base).Seconds()})
	}
	fmt.Fprintf(w, "shared-counter throughput, %d workers, %d ops\n", workers, ops)
	for _, r := range results {
		fmt.Fprintf(w, "  %-22s %12.0f ops/s\n", r.name, r.tput)
	}
	return nil
}
