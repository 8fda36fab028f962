// Command adversary replays the scripted worst-case executions of
// "Counting Networks are Practically Linearizable": the introduction's
// depth-1 example and the Section 4 constructions (Theorems 4.1, 4.3, 4.4),
// plus the Corollary 3.12 padding fix. For each scenario it prints the
// timing parameters, the per-token values, and the linearizability report.
//
//	adversary -scenario section1|tree|bitonic|waves|padding|all [-width w] [-trace t.jsonl]
//	adversary -replay schedule.jsonl [-trace t.jsonl]
//	adversary -faults chaos-plan.jsonl
//	adversary -fault-seed 7 -width 4 -net bitonic
//
// Every -trace is written through the shared obs exporter: a .jsonl name
// gives JSON Lines with a meta header (which tracetool -in reads), any
// other name Chrome trace_event (which Perfetto opens).
//
// With -faults the command replays a serialized chaos plan (a
// faults.WritePlan JSONL file, e.g. a shrunken reproducer from the
// conformance chaos soak) against the message-passing engine and checks
// the quiescent invariants; with -fault-seed it derives the plan
// deterministically from the seed instead, the generate-and-check twin of
// replay.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"countnet/internal/conformance"
	"countnet/internal/core"
	"countnet/internal/dtree"
	"countnet/internal/faults"
	"countnet/internal/lincheck"
	"countnet/internal/obs"
	"countnet/internal/schedule"
	"countnet/internal/topo"
	"countnet/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "adversary:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("adversary", flag.ContinueOnError)
	var (
		name    = fs.String("scenario", "all", "section1, tree, bitonic, waves, padding, or all")
		width   = fs.Int("width", 8, "network width for the Section 4 scenarios")
		trace   = fs.String("trace", "", "write the execution trace to this file: JSONL for a .jsonl name, Chrome trace_event otherwise (single scenarios only)")
		sweep   = fs.Bool("sweep", false, "run the Lemma 3.7 start-separation sweep instead of a scenario")
		search  = fs.Bool("search", false, "synthesize an adversarial schedule by hill climbing instead of replaying a scripted one")
		ratio   = fs.Int64("ratio", 5, "c2/c1 ratio budget for -search")
		replay  = fs.String("replay", "", "replay a serialized concrete schedule (JSONL, e.g. a conformance shrinker reproducer) instead of a scripted scenario")
		faultsP = fs.String("faults", "", "replay a serialized chaos plan (JSONL from faults.WritePlan) on the msgnet engine")
		faultSd = fs.Int64("fault-seed", 0, "derive a chaos plan from this seed and run it on the msgnet engine (0 = off)")
		net     = fs.String("net", "bitonic", "network family for -fault-seed: bitonic, periodic, or dtree")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *faultsP != "" {
		return replayFaultPlan(w, *faultsP, *trace)
	}
	if *faultSd != 0 {
		return derivedFaultRun(w, *net, *width, *faultSd, *trace)
	}
	if *replay != "" {
		return replaySchedule(w, *replay, *trace)
	}
	if *sweep {
		return gapSweep(w, *width)
	}
	if *search {
		return searchAdversary(w, *width, *ratio)
	}
	names := []string{*name}
	if *name == "all" {
		names = []string{"section1", "tree", "bitonic", "waves", "padding"}
	}
	if *trace != "" && len(names) > 1 {
		return fmt.Errorf("-trace requires a single -scenario")
	}
	for _, n := range names {
		if err := runOne(w, n, *width, *trace); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

func runOne(w io.Writer, name string, width int, tracePath string) error {
	if name == "padding" {
		return padding(w, width)
	}
	var (
		sc  *schedule.Scenario
		net string // workload.NetKind of the scenario's network, if it is one
		err error
	)
	switch name {
	case "section1":
		sc, err = schedule.Section1()
	case "tree":
		sc, err = schedule.Tree(width)
		net = string(workload.DTree)
	case "bitonic":
		sc, err = schedule.Bitonic(width)
		net = string(workload.Bitonic)
	case "waves":
		sc, err = schedule.Waves(width)
		net = string(workload.Bitonic)
	default:
		return fmt.Errorf("unknown scenario %q", name)
	}
	if err != nil {
		return err
	}
	res, err := schedule.Run(sc.Graph, sc.Arrive, sc.Delays, schedule.Options{Trace: tracePath != ""})
	if err != nil {
		return err
	}
	if tracePath != "" {
		if err := writeScheduleTrace(w, tracePath, net, sc.Graph.OutWidth(), res); err != nil {
			return err
		}
	}
	rep := res.Report()
	fmt.Fprintf(w, "== %s ==\n%s\n", sc.Name, sc.Claim)
	fmt.Fprintf(w, "network: %s\n", topo.Summary(sc.Graph))
	fmt.Fprintf(w, "timing:  c1=%d c2=%d (ratio %.2f, linearizable bound is 2)\n",
		sc.C1, sc.C2, float64(sc.C2)/float64(sc.C1))
	fmt.Fprintf(w, "result:  %s\n", rep)
	if len(res.Ops) <= 12 {
		printTokens(w, res)
		return nil
	}
	viols := lincheck.Violations(res.Ops)
	if len(viols) > 5 {
		viols = viols[:5]
	}
	for _, v := range viols {
		fmt.Fprintf(w, "  violated op: [%d, %d] -> %d (preceded by value %d)\n",
			v.Op.Start, v.Op.End, v.Op.Value, v.PrecedingMax)
	}
	return nil
}

// printTokens lists every token's operation interval and value.
func printTokens(w io.Writer, res *schedule.Result) {
	for k, op := range res.Ops {
		fmt.Fprintf(w, "  token %2d: [%6d, %6d] -> %d\n", k, op.Start, op.End, op.Value)
	}
}

// writeScheduleTrace exports a traced timed-executor run through obs, in
// the format the path's extension picks.
func writeScheduleTrace(w io.Writer, path, net string, width int, res *schedule.Result) error {
	meta := obs.Meta{Engine: "schedule", Unit: "cycles", Net: net, Width: width}
	if err := obs.WriteFile(path, meta, res.Events); err != nil {
		return err
	}
	fmt.Fprintf(w, "trace written to %s (%d events)\n", path, len(res.Events))
	return nil
}

// replaySchedule reruns a concrete schedule serialized by the conformance
// shrinker (schedule.WriteConcrete) and prints its linearizability report,
// optionally exporting the transition trace.
func replaySchedule(w io.Writer, path, tracePath string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	sched, err := schedule.ReadConcrete(f)
	f.Close()
	if err != nil {
		return err
	}
	if sched.Net == "" || sched.Width == 0 {
		return fmt.Errorf("replay: schedule %s names no network (net=%q width=%d)", path, sched.Net, sched.Width)
	}
	if len(sched.Tokens) == 0 {
		return fmt.Errorf("replay: schedule %s has no tokens", path)
	}
	g, err := workload.NetKind(sched.Net).Build(sched.Width)
	if err != nil {
		return err
	}
	res, err := sched.Run(g, schedule.Options{Trace: tracePath != ""})
	if err != nil {
		return err
	}
	if tracePath != "" {
		if err := writeScheduleTrace(w, tracePath, sched.Net, sched.Width, res); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "== replay %s ==\n", path)
	fmt.Fprintf(w, "network: %s\n", topo.Summary(g))
	fmt.Fprintf(w, "timing:  c1=%d c2=%d (ratio %.2f, linearizable bound is 2)\n",
		sched.C1, sched.C2, float64(sched.C2)/float64(sched.C1))
	fmt.Fprintf(w, "result:  %s\n", res.Report())
	printTokens(w, res)
	if wit, ok := lincheck.FirstWitness(res.Ops); ok {
		fmt.Fprintf(w, "witness: %s\n", wit)
	}
	return nil
}

// replayFaultPlan reruns a serialized chaos plan on the msgnet engine —
// the fault-layer twin of replaySchedule — and reports whether the
// quiescent invariants survive it.
func replayFaultPlan(w io.Writer, path, tracePath string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	plan, err := faults.ReadPlan(f)
	f.Close()
	if err != nil {
		return err
	}
	if plan.Net == "" || plan.Width == 0 {
		return fmt.Errorf("faults: plan %s names no workload (net=%q width=%d)", path, plan.Net, plan.Width)
	}
	fmt.Fprintf(w, "== chaos replay %s ==\n", path)
	return runFaultPlan(w, plan, tracePath)
}

// derivedFaultRun generates the deterministic chaos plan for (net, width,
// seed) — the same derivation the conformance chaos engine uses — and
// runs it.
func derivedFaultRun(w io.Writer, net string, width int, seed int64, tracePath string) error {
	spec := workload.Spec{Net: workload.NetKind(net), Width: width, Procs: 4, Ops: 256, Seed: seed}
	if err := spec.Validate(); err != nil {
		return err
	}
	plan, err := conformance.DerivePlan(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== chaos run (derived from fault-seed %d) ==\n", seed)
	return runFaultPlan(w, plan, tracePath)
}

// runFaultPlan executes one plan against its embedded workload hints and
// prints the plan, the invariant verdict, and the linearizability report.
// With tracePath the run is traced and the span-stamped causal trace is
// exported (JSONL or Chrome, by extension) for tracetool/Perfetto.
func runFaultPlan(w io.Writer, plan *faults.Plan, tracePath string) error {
	spec := workload.Spec{
		Net: workload.NetKind(plan.Net), Width: plan.Width,
		Procs: plan.Procs, Ops: plan.Ops, Seed: plan.Seed,
	}
	if spec.Procs <= 0 {
		spec.Procs = 4
	}
	if spec.Ops <= 0 {
		spec.Ops = 256
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	g, err := spec.Net.Build(spec.Width)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "network: %s\n", topo.Summary(g))
	fmt.Fprintf(w, "plan:    %v\n", plan)
	fmt.Fprintf(w, "workload: %d procs, %d ops\n", spec.Procs, spec.Ops)
	var (
		ring *obs.Ring
		tr   obs.Tracer // nil when untraced, never a nil *Ring
	)
	if tracePath != "" {
		ring = obs.NewRing(spec.Procs, 1<<16)
		tr = ring
	}
	exec, err := conformance.RunMsgnetPlan(spec, plan, tr)
	if err != nil {
		return err
	}
	if ring != nil {
		meta := obs.Meta{Engine: "msgnet-faults", Unit: "ns", Net: plan.Net, Width: plan.Width}
		if err := obs.WriteFile(tracePath, meta, ring.Events()); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace written to %s (%d events, %d overwritten; analyze with: tracetool -in %s)\n",
			tracePath, len(ring.Events()), ring.Overwritten(), tracePath)
	}
	if len(exec.Ops) != spec.Ops {
		return fmt.Errorf("chaos: completed %d of %d operations", len(exec.Ops), spec.Ops)
	}
	if err := exec.CheckUniversal(g.OutWidth()); err != nil {
		fmt.Fprintf(w, "result:  INVARIANT BREACH: %v\n", err)
		return err
	}
	fmt.Fprintf(w, "result:  quiescent invariants hold (gapless permutation, exact step tallies)\n")
	fmt.Fprintf(w, "lincheck: %s\n", lincheck.Analyze(exec.Ops))
	return nil
}

// searchAdversary synthesizes a violating schedule for the counting tree
// under the given ratio budget and prints what it found.
func searchAdversary(w io.Writer, width int, ratio int64) error {
	g, err := dtree.New(width)
	if err != nil {
		return err
	}
	const c1 = 10
	c2 := ratio * c1
	res, err := schedule.Search(g, schedule.SearchSpec{
		C1: c1, C2: c2, Tokens: 14, Horizon: 8 * c2, Rounds: 1500, Restarts: 8, Seed: 1,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== adversary synthesis (dtree[%d], c2 = %d*c1) ==\n", width, ratio)
	fmt.Fprintf(w, "%d schedules evaluated; best has %d non-linearizable operations\n", res.Evaluated, res.Violations)
	if res.Violations == 0 {
		if c2 <= 2*c1 {
			fmt.Fprintln(w, "none found — as Corollary 3.9 guarantees for c2 <= 2*c1")
		} else {
			fmt.Fprintln(w, "none found within the search budget (violations above 2*c1 exist but are rare)")
		}
		return nil
	}
	replay, err := res.Replay(g)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "replayed: %s\n", replay.Report())
	for k, a := range res.Arrivals {
		fmt.Fprintf(w, "  token %2d: enter t=%-6d delays %v -> value %d [%d,%d]\n",
			k, a.Time, res.LinkDelays[k], replay.Ops[k].Value, replay.Ops[k].Start, replay.Ops[k].End)
	}
	return nil
}

// gapSweep prints violations against the start-separation fraction of the
// Lemma 3.7 bound 2h(c2-c1): zero at and above 1.0, growing below it.
func gapSweep(w io.Writer, width int) error {
	g, err := dtree.New(width)
	if err != nil {
		return err
	}
	const c1, c2 = 10, 100
	fracs := []float64{0.01, 0.02, 0.04, 0.06, 0.08, 0.12, 0.25, 0.5, 1.0}
	pts, err := schedule.GapSweep(g, c1, c2, fracs, 24, 60, 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== Lemma 3.7 separation sweep (dtree[%d], c2/c1 = %d) ==\n", width, c2/c1)
	fmt.Fprintf(w, "bound: start-start gap 2h(c2-c1) = %d\n", 2*int64(g.Depth())*(c2-c1))
	fmt.Fprintf(w, "%-12s %-10s %s\n", "gap/bound", "pairs", "inversions")
	for _, pt := range pts {
		fmt.Fprintf(w, "%-12.2f %-10d %d (%.3f%%)\n", pt.Frac, pt.Pairs, pt.Inversions,
			100*float64(pt.Inversions)/float64(pt.Pairs))
	}
	return nil
}

// padding demonstrates Corollary 3.12: the tree scenario violates at
// c2 = 2.5*c1; the padded network under the same adversary does not.
func padding(w io.Writer, width int) error {
	sc, err := schedule.Tree(width)
	if err != nil {
		return err
	}
	before, err := sc.Run()
	if err != nil {
		return err
	}
	h := sc.Graph.Depth()
	k := int((sc.C2 + sc.C1 - 1) / sc.C1)
	padLen := core.PaddingLength(h, k)
	padded, err := topo.Pad(sc.Graph, padLen)
	if err != nil {
		return err
	}
	after, err := schedule.Run(padded, sc.Arrive, sc.Delays, schedule.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== padding (Corollary 3.12) ==\n")
	fmt.Fprintf(w, "tree width %d, depth %d, ratio bound k=%d -> prefix %d pass-through balancers per input\n",
		width, h, k, padLen)
	fmt.Fprintf(w, "unpadded: %s\n", before.Report())
	fmt.Fprintf(w, "padded:   %s (depth %d)\n", after.Report(), padded.Depth())
	return nil
}
