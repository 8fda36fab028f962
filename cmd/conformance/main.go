// Command conformance runs the cross-engine conformance harness: the
// deterministic corpus (every network family and width through the
// quiescent executor, the cycle simulator, the shared-memory runtime —
// plain, behind the combining funnel, and behind the contention-adaptive
// front-end — and the message-passing runtime both fault-free and
// fault-injected) and long schedule-fuzzing soaks against the Section 3
// theorems (Corollaries 3.9 and 3.12).
//
//	conformance                       corpus + a short soak
//	conformance -mode soak -rounds 5000 -shrink -out fail.jsonl
//	conformance -mode cross -widths 2,4,8,16
//	conformance -mode chaos -rounds 25 -fault-seed 1 -shrink -out plan.jsonl
//
// -mode chaos fuzzes whole fault plans (internal/faults) against the
// message-passing engine: random drop/dup/reorder/delay rates, link
// partitions, and node stall/crash windows, all derived deterministically
// from -fault-seed. A failing plan is shrunk (with -shrink) to a minimal
// chaos reproducer and serialized to -out; replay it with
// `adversary -faults <file>`.
//
// On an invariant breach the offending schedule is shrunk (with -shrink)
// to a minimal reproducer, serialized as JSONL to -out (default stdout),
// and the process exits non-zero; replay it with
// `adversary -replay <file>`. When the breach is a linearizability
// violation, -trace (default `<out>.trace.json`) additionally writes the
// execution trace sliced to the minimal window covering the violating
// operation pair, in Chrome trace_event format for Perfetto. -metrics
// dumps run counters as plain text and -pprof serves net/http/pprof plus
// /metrics while the harness runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"countnet/internal/conformance"
	"countnet/internal/faults"
	"countnet/internal/obs"
	"countnet/internal/schedule"
	"countnet/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "conformance:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("conformance", flag.ContinueOnError)
	var (
		mode    = fs.String("mode", "all", "all, cross (engine corpus), soak (schedule fuzzing), or chaos (fault-plan fuzzing)")
		nets    = fs.String("nets", "bitonic,periodic,dtree", "comma-separated network families")
		widths  = fs.String("widths", "2,4,8", "comma-separated network widths")
		rounds  = fs.Int("rounds", 100, "fuzzed schedules per (net, width, regime) cell")
		ops     = fs.Int("ops", 64, "operations per cross-engine run")
		procs   = fs.Int("procs", 4, "workers per cross-engine run")
		seed    = fs.Int64("seed", 1, "fuzzing seed")
		faultSd = fs.Int64("fault-seed", 1, "seed for -mode chaos fault plans")
		shrink  = fs.Bool("shrink", false, "minimize a failing schedule before reporting it")
		out     = fs.String("out", "", "write the failing schedule (JSONL) to this file instead of stdout")
		trace   = fs.String("trace", "", "write the witness-correlated trace slice to this file (default <out>.trace.json)")
		flight  = fs.String("flight", "", "write the violation's flight-recorder dump (full causal trace, JSONL) to this file (default <out>.flight.jsonl)")
		metrics = fs.String("metrics", "", `write the plain-text metrics dump to this file ("-" for stdout)`)
		pprofA  = fs.String("pprof", "", "serve net/http/pprof and /metrics on this address while running")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg := obs.NewRegistry()
	if *pprofA != "" {
		addr, stop, err := obs.Serve(*pprofA, reg)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(w, "pprof+metrics on http://%s (/debug/pprof/, /metrics)\n", addr)
	}
	if *trace == "" && *out != "" {
		*trace = *out + ".trace.json"
	}
	if *flight == "" && *out != "" {
		*flight = *out + ".flight.jsonl"
	}
	kinds, err := parseNets(*nets)
	if err != nil {
		return err
	}
	sizes, err := parseWidths(*widths)
	if err != nil {
		return err
	}
	switch *mode {
	case "all", "cross", "soak", "chaos":
	default:
		return fmt.Errorf("unknown -mode %q (want all, cross, soak, or chaos)", *mode)
	}
	var runErr error
	if *mode == "all" || *mode == "cross" {
		runErr = crossEngine(w, reg, kinds, sizes, *procs, *ops, *seed)
	}
	if runErr == nil && (*mode == "all" || *mode == "soak") {
		runErr = soak(w, reg, kinds, sizes, *rounds, *seed, *shrink, *out, *trace, *flight)
	}
	if runErr == nil && *mode == "chaos" {
		runErr = chaos(w, reg, kinds, sizes, *rounds, *ops, *procs, *faultSd, *shrink, *out)
	}
	if *metrics != "" {
		dest := w
		if *metrics != "-" {
			f, err := os.Create(*metrics)
			if err != nil {
				return err
			}
			defer f.Close()
			dest = f
		}
		reg.WriteText(dest)
	}
	return runErr
}

// crossEngine runs the differential corpus and reports per-cell agreement.
func crossEngine(w io.Writer, reg *obs.Registry, nets []workload.NetKind, widths []int, procs, ops int, seed int64) error {
	fmt.Fprintln(w, "== cross-engine conformance (quiescent / sim / shm / shm-combine / shm-adaptive / shm-adaptive-linear / msgnet / msgnet-faults) ==")
	cells := reg.Counter("conformance_cross_cells_total")
	for _, net := range nets {
		for _, width := range widths {
			spec := workload.Spec{
				Net:   net,
				Width: width,
				Procs: procs,
				Ops:   ops,
				Frac:  0.25,
				Wait:  200,
				Seed:  seed,
			}
			if err := conformance.CrossCheck(spec); err != nil {
				return fmt.Errorf("ENGINES DISAGREE on %s: %w", spec, err)
			}
			cells.Inc()
			fmt.Fprintf(w, "%-32s 8 engines agree (%d ops)\n", spec, ops)
		}
	}
	return nil
}

// soak fuzzes random timing schedules and reports, or serializes, the
// first invariant breach, with its witness-correlated trace slice when the
// breach is a linearizability violation.
func soak(w io.Writer, reg *obs.Registry, nets []workload.NetKind, widths []int, rounds int, seed int64, shrink bool, outPath, tracePath, flightPath string) error {
	fmt.Fprintf(w, "== schedule-fuzzing soak (%d rounds per cell, seed %d) ==\n", rounds, seed)
	roundsMetric := reg.Counter("conformance_soak_rounds_total")
	failures := reg.Counter("conformance_soak_failures_total")
	fail, total, err := conformance.Soak(conformance.SoakConfig{
		Nets:   nets,
		Widths: widths,
		Rounds: rounds,
		Seed:   seed,
		Shrink: shrink,
		Progress: func(format string, args ...any) {
			fmt.Fprintf(w, format+"\n", args...)
		},
	})
	roundsMetric.Add(int64(total))
	if err != nil {
		return err
	}
	if fail == nil {
		fmt.Fprintf(w, "soak clean: %d schedules, zero invariant breaches\n", total)
		return nil
	}
	failures.Inc()
	fmt.Fprintf(w, "INVARIANT BREACH after %d schedules: %v\n", total, fail)
	dest := w
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		dest = f
		fmt.Fprintf(w, "reproducer written to %s (replay with: adversary -replay %s)\n", outPath, outPath)
	}
	if err := schedule.WriteConcrete(dest, fail.Sched); err != nil {
		return err
	}
	if tracePath != "" || flightPath != "" {
		if err := writeWitnessTrace(w, fail, tracePath, flightPath); err != nil {
			fmt.Fprintf(w, "witness trace: %v\n", err)
		}
	}
	return fmt.Errorf("conformance failed: %s", fail.Error())
}

// chaos fuzzes whole fault plans against the message-passing engine and
// reports, or serializes, the first invariant breach with its (shrunk)
// plan reproducer.
func chaos(w io.Writer, reg *obs.Registry, nets []workload.NetKind, widths []int, rounds, ops, procs int, faultSeed int64, shrink bool, outPath string) error {
	fmt.Fprintf(w, "== chaos soak (fault-plan fuzzing, %d plans per cell, fault-seed %d) ==\n", rounds, faultSeed)
	roundsMetric := reg.Counter("conformance_chaos_rounds_total")
	failures := reg.Counter("conformance_chaos_failures_total")
	fail, total, err := conformance.ChaosSoak(conformance.ChaosConfig{
		Nets:   nets,
		Widths: widths,
		Rounds: rounds,
		Seed:   faultSeed,
		Ops:    ops,
		Procs:  procs,
		Shrink: shrink,
		Progress: func(format string, args ...any) {
			fmt.Fprintf(w, format+"\n", args...)
		},
	})
	roundsMetric.Add(int64(total))
	if err != nil {
		return err
	}
	if fail == nil {
		fmt.Fprintf(w, "chaos clean: %d fault plans, zero invariant breaches\n", total)
		return nil
	}
	failures.Inc()
	fmt.Fprintf(w, "INVARIANT BREACH after %d plans: %v\n", total, fail.Err)
	dest := w
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		dest = f
		fmt.Fprintf(w, "fault-plan reproducer written to %s (replay with: adversary -faults %s)\n", outPath, outPath)
	}
	if err := faults.WritePlan(dest, fail.Plan); err != nil {
		return err
	}
	return fmt.Errorf("chaos conformance failed: %s", fail.Error())
}

// writeWitnessTrace reruns the reproducer with tracing and writes the
// violation-window slice next to it, plus (when flightPath is set) the
// flight-recorder dump carrying the full causal trace with reason
// "lincheck-violation"; a breach of a non-linearizability invariant has
// no witness pair and is reported as such.
func writeWitnessTrace(w io.Writer, fail *conformance.SoakFailure, path, flightPath string) error {
	g, err := fail.Net.Build(fail.Width)
	if err != nil {
		return err
	}
	wt, ok, err := conformance.TraceWitness(g, fail.Sched)
	if err != nil {
		return err
	}
	if !ok {
		fmt.Fprintf(w, "breach has no linearizability witness; no trace slice written\n")
		return nil
	}
	fmt.Fprintf(w, "witness %s\n", wt.Witness)
	if path != "" {
		if err := wt.WriteFile(path); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace slice [%d,%d] (%d events) written to %s (open in Perfetto)\n",
			wt.From, wt.To, len(wt.Events), path)
	}
	if flightPath != "" {
		if err := wt.DumpFlight(flightPath); err != nil {
			return err
		}
		fmt.Fprintf(w, "flight dump written to %s (analyze with: tracetool -in %s)\n", flightPath, flightPath)
	}
	return nil
}

func parseNets(s string) ([]workload.NetKind, error) {
	var out []workload.NetKind
	for _, part := range strings.Split(s, ",") {
		kind := workload.NetKind(strings.TrimSpace(part))
		switch kind {
		case workload.Bitonic, workload.Periodic, workload.DTree:
			out = append(out, kind)
		default:
			return nil, fmt.Errorf("unknown network family %q", part)
		}
	}
	return out, nil
}

func parseWidths(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 2 {
			return nil, fmt.Errorf("bad width %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
