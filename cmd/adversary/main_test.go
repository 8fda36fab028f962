package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"countnet/internal/faults"
	"countnet/internal/obs"
	"countnet/internal/schedule"
)

func TestRunAllScenarios(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scenario", "all", "-width", "8"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"section1", "Theorem 4.1", "Theorem 4.3", "Theorem 4.4",
		"padding (Corollary 3.12)", "non-linearizable",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// The padding block must report zero violations on the padded network.
	if !strings.Contains(out, "padded:   0/") {
		t.Errorf("padded run not clean:\n%s", out)
	}
}

func TestRunSingleScenario(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scenario", "section1"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "token  2") {
		t.Errorf("token table missing:\n%s", sb.String())
	}
}

func TestRunRejectsUnknownScenario(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scenario", "nonsense"}, &sb); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// readTrace reads a -trace export back through obs.ReadJSONL and checks
// that it came from the timed executor and that every token's events form
// one causal chain: each event's Parent is the token's previous span.
func readTrace(t *testing.T, path string) (obs.Meta, []obs.Event) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	meta, events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Engine != "schedule" || meta.Unit != "cycles" {
		t.Errorf("meta = %+v, want engine schedule in cycles", meta)
	}
	last := make(map[int32]uint64)
	for i, ev := range events {
		if ev.Span != uint64(i+1) || ev.Parent != last[ev.Tok] {
			t.Errorf("event %d: span %d parent %d, want %d and %d", i, ev.Span, ev.Parent, i+1, last[ev.Tok])
		}
		last[ev.Tok] = ev.Span
	}
	return meta, events
}

func TestRunTraceExport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	var sb strings.Builder
	if err := run([]string{"-scenario", "tree", "-width", "4", "-trace", path}, &sb); err != nil {
		t.Fatal(err)
	}
	meta, events := readTrace(t, path)
	if meta.Net != "dtree" || meta.Width != 4 {
		t.Errorf("meta = %+v, want dtree width 4", meta)
	}
	// 5 tokens (w=4 scenario: T0, T1, 3 wave) each transit depth+1 = 3 nodes.
	if len(events) != 5*3 {
		t.Errorf("trace has %d events, want 15", len(events))
	}
	if err := run([]string{"-scenario", "all", "-trace", path}, &sb); err == nil {
		t.Error("-trace with -scenario all accepted")
	}
}

func TestRunWavesWideShowsViolatedOps(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scenario", "waves", "-width", "16"}, &sb); err != nil {
		t.Fatal(err)
	}
	// 24 tokens: the token table is elided and violated ops are listed.
	if !strings.Contains(sb.String(), "violated op:") {
		t.Errorf("wide scenario did not list violations:\n%s", sb.String())
	}
}

func TestRunSweep(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-sweep", "-width", "4"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "separation sweep") || !strings.Contains(sb.String(), "gap/bound") {
		t.Errorf("sweep output:\n%s", sb.String())
	}
}

func TestRunSearch(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-search", "-width", "4", "-ratio", "5"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "adversary synthesis") {
		t.Errorf("search output:\n%s", sb.String())
	}
}

func TestRunSearchBelowBoundFindsNothing(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-search", "-width", "4", "-ratio", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Corollary 3.9") {
		t.Errorf("below-bound search output:\n%s", sb.String())
	}
}

// writeViolatingSchedule serializes a 3-token bitonic[2] schedule whose
// third token is non-linearizable and returns its path.
func writeViolatingSchedule(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "sched.jsonl")
	sched := &schedule.Concrete{
		Net: "bitonic", Width: 2, C1: 100, C2: 1000,
		Tokens: []schedule.ConcreteToken{
			{Time: 0, Input: 0, Delays: []int64{1000}},
			{Time: 1, Input: 0, Delays: []int64{100}},
			{Time: 110, Input: 0, Delays: []int64{100}},
		},
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.WriteConcrete(f, sched); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunReplay(t *testing.T) {
	path := writeViolatingSchedule(t, t.TempDir())
	var sb strings.Builder
	if err := run([]string{"-replay", path}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"replay", "ratio 10.00", "non-linearizable", "witness:"} {
		if !strings.Contains(out, want) {
			t.Errorf("replay output missing %q:\n%s", want, out)
		}
	}
}

// TestRunReplayTraceExport: -replay -trace writes the obs format, named
// after the schedule's network, with one event per transition (3 tokens,
// each through one balancer and a counter).
func TestRunReplayTraceExport(t *testing.T) {
	dir := t.TempDir()
	path := writeViolatingSchedule(t, dir)
	trace := filepath.Join(dir, "trace.jsonl")
	var sb strings.Builder
	if err := run([]string{"-replay", path, "-trace", trace}, &sb); err != nil {
		t.Fatal(err)
	}
	meta, events := readTrace(t, trace)
	if meta.Net != "bitonic" || meta.Width != 2 {
		t.Errorf("meta = %+v, want bitonic width 2", meta)
	}
	if len(events) != 3*2 {
		t.Fatalf("trace has %d events, want 6", len(events))
	}
	var counters int
	for _, ev := range events {
		if ev.Kind == obs.KindCounter {
			counters++
		}
	}
	if counters != 3 {
		t.Errorf("trace has %d counter events, want 3", counters)
	}
}

func TestRunDerivedFaultSeed(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fault-seed", "7", "-net", "bitonic", "-width", "4"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"chaos run (derived from fault-seed 7)",
		"plan:",
		"quiescent invariants hold",
		"lincheck:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestRunFaultPlanReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plan.jsonl")
	plan := faults.Chaos(3, 0.15, 2000)
	plan.Net, plan.Width, plan.Procs, plan.Ops = "dtree", 4, 4, 200
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := faults.WritePlan(f, plan); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-faults", path}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"chaos replay", "workload: 4 procs, 200 ops", "quiescent invariants hold"} {
		if !strings.Contains(out, want) {
			t.Errorf("replay output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFaultPlanRejectsMissingWorkload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "anon-plan.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := faults.WritePlan(f, faults.Chaos(1, 0.1, 0)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var sb strings.Builder
	if err := run([]string{"-faults", path}, &sb); err == nil {
		t.Error("plan without workload hints accepted")
	}
}

func TestRunReplayRejectsMissingNetwork(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "anon.jsonl")
	sched := &schedule.Concrete{
		C1: 10, C2: 20,
		Tokens: []schedule.ConcreteToken{{Time: 0, Input: 0}},
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.WriteConcrete(f, sched); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var sb strings.Builder
	if err := run([]string{"-replay", path}, &sb); err == nil {
		t.Error("schedule without a network hint accepted")
	}
}
