package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"countnet/internal/conformance"
	"countnet/internal/faults"
	"countnet/internal/obs"
	"countnet/internal/workload"
)

// writeTrace serializes a synthetic trace to a temp file and returns its
// path.
func writeTrace(t *testing.T, meta obs.Meta, events []obs.Event) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSONL(f, meta, events); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// syntheticChaos builds a two-token trace: token 1 suffers a three-retry
// storm and a dedup conflict, token 2 is clean.
func syntheticChaos() (obs.Meta, []obs.Event) {
	meta := obs.Meta{Engine: "msgnet", Unit: "ns", Net: "bitonic", Width: 2}
	events := []obs.Event{
		{T: 10, Kind: obs.KindEnter, P: 0, Tok: 1, Node: -1, Value: -1, Span: 1},
		{T: 30, Dur: 15, Kind: obs.KindBalancer, Tok: 1, Node: 0, Value: -1, Span: 2, Parent: 1},
		{T: 40, Dur: 8, Kind: obs.KindRetry, Tok: 1, Node: 1, Value: 3, Span: 3, Parent: 2},
		{T: 52, Dur: 10, Kind: obs.KindRetry, Tok: 1, Node: 1, Value: 3, Span: 4, Parent: 3},
		{T: 70, Dur: 14, Kind: obs.KindRetry, Tok: 1, Node: 1, Value: 3, Span: 5, Parent: 4},
		{T: 90, Dur: 45, Kind: obs.KindBalancer, Tok: 1, Node: 1, Value: -1, Span: 6, Parent: 5},
		{T: 95, Kind: obs.KindDedup, Tok: 1, Node: 1, Value: -1, Span: 7, Parent: 5},
		{T: 110, Dur: 12, Kind: obs.KindCounter, Tok: 1, Node: 2, Value: 0, Span: 8, Parent: 6},
		{T: 120, Dur: 110, Kind: obs.KindExit, Tok: 1, Node: -1, Value: 0, Span: 9, Parent: 8},

		{T: 15, Kind: obs.KindEnter, P: 1, Tok: 2, Node: -1, Value: -1, Span: 10},
		{T: 35, Dur: 12, Kind: obs.KindBalancer, P: 1, Tok: 2, Node: 0, Value: -1, Span: 11, Parent: 10},
		{T: 60, Dur: 9, Kind: obs.KindCounter, P: 1, Tok: 2, Node: 3, Value: 1, Span: 12, Parent: 11},
		{T: 70, Dur: 55, Kind: obs.KindExit, P: 1, Tok: 2, Node: -1, Value: 1, Span: 13, Parent: 12},
	}
	return meta, events
}

func runTool(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var buf bytes.Buffer
	anomalies, err := run(args, &buf)
	if err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.String(), anomalies
}

func TestReportDeterministicAndFlagsStorm(t *testing.T) {
	meta, events := syntheticChaos()
	path := writeTrace(t, meta, events)

	out1, anomalies := runTool(t, "-in", path, "-storm", "3")
	out2, _ := runTool(t, "-in", path, "-storm", "3")
	if out1 != out2 {
		t.Fatalf("report not deterministic:\n--- first\n%s\n--- second\n%s", out1, out2)
	}
	if !strings.Contains(out1, "retry storm") {
		t.Fatalf("three consecutive retries not flagged as a storm:\n%s", out1)
	}
	if !strings.Contains(out1, "dedup conflicts") {
		t.Fatalf("dedup event not flagged:\n%s", out1)
	}
	if anomalies < 2 {
		t.Fatalf("anomalies = %d, want >= 2 (storm + dedup)", anomalies)
	}
	if strings.Contains(out1, "causality inversion") {
		t.Fatalf("clean trace flagged an inversion:\n%s", out1)
	}
	// tokens: both reconstructed; token 1's breakdown includes the backoff.
	if !strings.Contains(out1, "tokens: 2") {
		t.Fatalf("expected 2 tokens:\n%s", out1)
	}
}

func TestStormThresholdRespected(t *testing.T) {
	meta, events := syntheticChaos()
	path := writeTrace(t, meta, events)
	out, _ := runTool(t, "-in", path, "-storm", "4")
	if strings.Contains(out, "retry storm") {
		t.Fatalf("run of 3 retries flagged with -storm 4:\n%s", out)
	}
}

func TestCausalityInversionFlagged(t *testing.T) {
	meta := obs.Meta{Engine: "sim", Unit: "cycles", Net: "bitonic", Width: 2}
	events := []obs.Event{
		{T: 100, Kind: obs.KindEnter, Tok: 1, Node: -1, Value: -1, Span: 1},
		// Completed before its causal parent: a broken stamp.
		{T: 50, Dur: 5, Kind: obs.KindBalancer, Tok: 1, Node: 0, Value: -1, Span: 2, Parent: 1},
		{T: 120, Dur: 4, Kind: obs.KindCounter, Tok: 1, Node: 1, Value: 0, Span: 3, Parent: 2},
	}
	path := writeTrace(t, meta, events)
	out, anomalies := runTool(t, "-in", path)
	if !strings.Contains(out, "causality inversion") {
		t.Fatalf("inversion not flagged:\n%s", out)
	}
	if anomalies == 0 {
		t.Fatal("anomalies = 0, want > 0")
	}
}

func TestWindowRatioThreshold(t *testing.T) {
	meta := obs.Meta{Engine: "shm", Unit: "ns", Net: "periodic", Width: 2}
	// Two windows: the first with tiny toggle waits (ratio blows up), the
	// second with large ones (ratio near 1).
	events := []obs.Event{
		{T: 0, Dur: 10, Kind: obs.KindBalancer, Tok: 1, Node: 0, Value: -1},
		{T: 10, Dur: 10, Kind: obs.KindBalancer, Tok: 2, Node: 0, Value: -1},
		{T: 1000, Dur: 4000, Kind: obs.KindBalancer, Tok: 3, Node: 0, Value: -1},
		{T: 1999, Dur: 4000, Kind: obs.KindBalancer, Tok: 4, Node: 0, Value: -1},
	}
	path := writeTrace(t, meta, events)
	out, anomalies := runTool(t, "-in", path, "-windows", "2", "-w", "1us", "-ratio-threshold", "2")
	if !strings.Contains(out, "over the (Tog+W)/Tog threshold") {
		t.Fatalf("small-Tog window not flagged:\n%s", out)
	}
	if anomalies != 1 {
		t.Fatalf("anomalies = %d, want exactly 1 flagged window", anomalies)
	}
}

func TestJourneyListing(t *testing.T) {
	meta, events := syntheticChaos()
	path := writeTrace(t, meta, events)
	out, _ := runTool(t, "-in", path, "-tokens", "1")
	if !strings.Contains(out, "journey tok 1") {
		t.Fatalf("journey for token 1 missing:\n%s", out)
	}
	if strings.Contains(out, "journey tok 2") {
		t.Fatalf("journey for token 2 printed but not requested:\n%s", out)
	}
	// The chain is printed in causal (span) order: the retries sit between
	// the two balancer hops.
	section := out[strings.Index(out, "journey tok 1"):]
	iBal := strings.Index(section, "balancer")
	iRetry := strings.Index(section, "retry")
	if iBal < 0 || iRetry < 0 || iRetry < iBal {
		t.Fatalf("journey not in causal order:\n%s", out)
	}
}

// TestMsgnetChaosTraceEndToEnd is the acceptance path in miniature: run
// the real msgnet engine under a lossy fault plan with tracing, feed the
// JSONL through the tool twice, and require a byte-identical report that
// flags the injected retry storms.
func TestMsgnetChaosTraceEndToEnd(t *testing.T) {
	spec := workload.Spec{Net: workload.Bitonic, Width: 2, Procs: 4, Ops: 64, Seed: 7}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{
		Net: string(spec.Net), Width: spec.Width, Procs: spec.Procs, Ops: spec.Ops,
		Seed:    7,
		Default: faults.Rule{Drop: 0.6},
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRing(spec.Procs, 1<<14)
	exec, err := conformance.RunMsgnetPlan(spec, plan, ring)
	if err != nil {
		t.Fatal(err)
	}
	if len(exec.Ops) != spec.Ops {
		t.Fatalf("completed %d of %d ops", len(exec.Ops), spec.Ops)
	}
	meta := obs.Meta{Engine: "msgnet-faults", Unit: "ns", Net: string(spec.Net), Width: spec.Width}
	path := writeTrace(t, meta, ring.Events())

	out1, anomalies := runTool(t, "-in", path, "-storm", "3")
	out2, _ := runTool(t, "-in", path, "-storm", "3")
	if out1 != out2 {
		t.Fatal("report on real chaos trace not deterministic")
	}
	if !strings.Contains(out1, "retry storm") {
		t.Fatalf("no retry storm flagged at drop=0.6:\n%s", out1)
	}
	if strings.Contains(out1, "causality inversion") {
		t.Fatalf("engine trace has causality inversions:\n%s", out1)
	}
	if anomalies == 0 {
		t.Fatal("anomalies = 0 on a lossy chaos run")
	}
}
