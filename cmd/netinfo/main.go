// Command netinfo inspects counting-network constructions: shape, depth,
// uniformity, a counting-property check, the paper's timing
// bounds for a given c1/c2, and optional Graphviz output.
//
//	netinfo -net bitonic -width 32 -c1 100 -c2 250 [-dot out.dot] [-verify]
//	netinfo -net bitonic -width 8 -measure
//
// -measure runs a small instrumented workload through each engine — cycle
// simulator, shared-memory goroutines behind each shm front-end (shm,
// shm-combine, shm-adaptive, shm-adaptive-linear; rows are labelled by
// front-end name), message-passing channels — and prints the measured
// Tog, W, and (Tog+W)/Tog timing ratio per engine (the paper's Section 5
// measure, live rather than offline), plus each front-end's
// workload.FrontReport summary (the funnel's hit rate, the adaptive
// front's built mode and per-mode tallies).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"countnet/internal/core"
	"countnet/internal/msgnet"
	"countnet/internal/obs"
	"countnet/internal/shm"
	"countnet/internal/topo"
	"countnet/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "netinfo:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("netinfo", flag.ContinueOnError)
	var (
		net     = fs.String("net", "bitonic", "bitonic, periodic, or dtree")
		width   = fs.Int("width", 8, "network width (power of two)")
		c1      = fs.Int64("c1", 100, "minimum link-traversal time")
		c2      = fs.Int64("c2", 200, "maximum link-traversal time")
		dot     = fs.String("dot", "", "write Graphviz output to this file")
		jsonP   = fs.String("json", "", "write the network encoding to this JSON file")
		verify  = fs.Bool("verify", false, "certify the counting property: every input vector up to a token total, then randomized trials")
		render  = fs.Bool("render", false, "print a layer-by-layer ASCII rendering")
		pad     = fs.Bool("pad", false, "also show the Corollary 3.12 padded network")
		measure = fs.Bool("measure", false, "run an instrumented workload and print the measured (Tog+W)/Tog per engine")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := workload.NetKind(*net).Build(*width)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s[%d]: %s\n", *net, *width, topo.Summary(g))

	tm := core.Timing{C1: *c1, C2: *c2}
	if err := tm.Validate(); err != nil {
		return err
	}
	h := g.Depth()
	fmt.Fprintf(w, "timing c1=%d c2=%d: ratio %.2f\n", tm.C1, tm.C2, tm.Ratio())
	if tm.Linearizable() {
		fmt.Fprintf(w, "  linearizable in every execution (c2 <= 2*c1, Corollary 3.9)\n")
	} else {
		fmt.Fprintf(w, "  NOT guaranteed linearizable (c2 > 2*c1; Theorems 4.1/4.3 give violating executions)\n")
		fmt.Fprintf(w, "  ordered anyway if separated by > %d (start-start, Lemma 3.7) or > %d (finish-start, Theorem 3.6)\n",
			tm.StartStartGap(h), tm.FinishStartGap(h))
		k := tm.K()
		fmt.Fprintf(w, "  padding fix (Corollary 3.12): k=%d -> %d pass-through balancers per input, depth %d -> %d\n",
			k, core.PaddingLength(h, k), h, core.PaddedDepth(h, k))
	}

	if *render {
		fmt.Fprint(w, topo.Render(g))
	}
	if *verify {
		how, err := topo.Certify(g, 25, 1)
		if err != nil {
			return fmt.Errorf("counting-property check FAILED: %w", err)
		}
		fmt.Fprintf(w, "counting-property check: ok (%s)\n", how)
	}
	if *pad && !tm.Linearizable() {
		padded, err := topo.Pad(g, core.PaddingLength(h, tm.K()))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "padded: %s\n", topo.Summary(padded))
	}
	if *dot != "" {
		if err := os.WriteFile(*dot, []byte(topo.Dot(g, *net)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *dot)
	}
	if *jsonP != "" {
		data, err := topo.Encode(g)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonP, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *jsonP)
	}
	if *measure {
		return measureEngines(w, workload.NetKind(*net), *width)
	}
	return nil
}

// measureEngines runs the same modest workload (8 processors, 2000
// operations, F=25% delayed) through the engines with live metrics and
// prints one measured-ratio row per engine. The sim row injects W=1000
// cycles, the shm rows (one per workload.Fronts front-end) W=20µs;
// msgnet has no delay-injection hook, so its W is 0 and the ratio
// degenerates to 1 — its Tog column is still the real measured hop wait.
func measureEngines(w io.Writer, net workload.NetKind, width int) error {
	const procs, ops, frac = 8, 2000, 0.25
	const row = "%-19s %-7s %14.1f %14.0f %14.3f"
	fmt.Fprintf(w, "measured timing ratio, Section 5's (Tog+W)/Tog (%d procs, %d ops, F=%.0f%%)\n",
		procs, ops, 100.0*frac)
	fmt.Fprintf(w, "%-19s %-7s %14s %14s %14s\n", "engine", "unit", "Tog", "W", "(Tog+W)/Tog")

	simRes, err := workload.Spec{Net: net, Width: width, Procs: procs, Ops: ops,
		Frac: frac, Wait: 1000, Seed: 1}.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, row+"\n", "sim", "cycles", simRes.Tog, 1000.0, simRes.AvgRatio)

	g, err := net.Build(width)
	if err != nil {
		return err
	}
	for _, kind := range workload.Fronts {
		n, err := shm.Compile(g, shm.Options{Diffract: net == workload.DTree})
		if err != nil {
			return err
		}
		cfg := shm.StressConfig{Net: n, Workers: procs, Ops: ops, DelayedFrac: frac,
			Delay: 20 * time.Microsecond, Seed: 1, Metrics: obs.NewRegistry()}
		if cfg.Front, err = kind.Build(n, cfg.Metrics); err != nil {
			return err
		}
		res, err := shm.Stress(cfg)
		if err != nil {
			return err
		}
		line := fmt.Sprintf(row+"   %s", kind, "ns", res.Tog, cfg.EffWait(), res.AvgRatio, workload.FrontReport(cfg.Front))
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}

	reg := obs.NewRegistry()
	mn, err := msgnet.StartOpts(g, msgnet.Options{Buffer: 1, Metrics: reg})
	if err != nil {
		return err
	}
	defer mn.Close()
	if _, err := shm.Drive(time.Now(), procs, ops, mn.Next); err != nil {
		return err
	}
	var tog, val float64
	if r := mn.Ratio(); r != nil {
		tog, val = r.Tog(), r.Value()
	}
	fmt.Fprintf(w, row+"\n", "msgnet", "ns", tog, 0.0, val)
	return nil
}
