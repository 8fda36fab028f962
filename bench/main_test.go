package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// smallRun keeps test runs short and small: 50 ms of calls into logs of
// 8192 slots per client.
var smallRun = runConfig{seed: 7, budget: 50 * time.Millisecond, perClient: 1 << 13}

// TestWorkloadsPrintDeclaredMetrics runs every workload untraced and
// traced, and checks that each passes its correctness checks and prints
// every metric BENCHMARK.json declares for that mode, with its unit, on
// its own line and in the final JSON object.
func TestWorkloadsPrintDeclaredMetrics(t *testing.T) {
	var sp spec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, bench has %d", len(sp.Workloads), len(workloads))
	}
	type decl struct{ name, unit string }
	var e2e, layer []decl
	for _, m := range sp.EndToEnd {
		e2e = append(e2e, decl{m.Name, m.Unit})
	}
	for _, m := range sp.PerLayer {
		layer = append(layer, decl{m.Name, m.Unit})
	}
	for _, wd := range sp.Workloads {
		w, err := findWorkload(wd.Name)
		if err != nil {
			t.Fatal(err)
		}
		for trace, want := range [][]decl{e2e, layer} {
			t.Run(fmt.Sprintf("%s/trace%d", w.name, trace), func(t *testing.T) {
				var out bytes.Buffer
				run := measure
				if trace == 1 {
					run = layers
				}
				res, err := run(&out, w, smallRun)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v\n%s", res, out.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("metric %s: got %+v, want a finite value in %s", m.name, got, m.unit)
					}
					line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.name) + `\s+\S+\s+` + regexp.QuoteMeta(m.unit) + `\b`)
					if !line.Match(out.Bytes()) {
						t.Errorf("no %q line with unit %s in output:\n%s", m.name, m.unit, out.String())
					}
				}
			})
		}
	}
}

// TestLastLineIsResult runs the command entry point and checks that the
// last output line parses as the result object.
func TestLastLineIsResult(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"--workload", "adaptive-direct", "--seed", "3", "--seconds", "0.05", "--trace", "0"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lastResult(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result %+v", res)
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "linear", "--trace", "2"},
		{"--workload", "linear", "--seconds", "0"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%q) succeeded", args)
		}
	}
}

func TestSpansExport(t *testing.T) {
	cfg := smallRun
	cfg.spans = filepath.Join(t.TempDir(), "spans.jsonl")
	w, err := findWorkload("anomaly")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := layers(&bytes.Buffer{}, w, cfg); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(cfg.spans)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{`"meta"`, `"kind":"enter"`, `"kind":"balancer"`, `"kind":"counter"`, `"kind":"exit"`} {
		if !bytes.Contains(b, []byte(kind)) {
			t.Errorf("spans lack %s", kind)
		}
	}
}

// TestGaplessCountsBadValues feeds the check a hand-made round.
func TestGaplessCountsBadValues(t *testing.T) {
	d := newDriver(4)
	fill := func(a, b []int64) {
		for c, vs := range [][]int64{a, b} {
			d.n[c] = len(vs)
			for i, v := range vs {
				d.log[c][i] = slot{start: int64(i), end: int64(i) + 1, value: v}
			}
		}
	}
	for _, tc := range []struct {
		a, b   []int64
		before int64
		bad    int
	}{
		{[]int64{10, 12}, []int64{11, 13}, 10, 0},
		{[]int64{10, 12}, []int64{11, 12}, 10, 1}, // duplicate, so 13 is missing
		{[]int64{10, 14}, []int64{11, 12}, 10, 1}, // out of range
		{[]int64{0, 1}, []int64{2, 3}, 10, 4},     // wrong range start
	} {
		fill(tc.a, tc.b)
		if got := d.gapless(tc.before); got != tc.bad {
			t.Errorf("gapless(%v, %v from %d) = %d, want %d", tc.a, tc.b, tc.before, got, tc.bad)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 5}, 5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) is not NaN")
	}
}

// TestQuartiles pins the Python statistics.quantiles(xs, n=4) values.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestPercentile(t *testing.T) {
	h := newLatHist()
	for _, v := range []int64{5, 1, 4, 2, 3, latHistLimit + 10, latHistLimit + 5, -3} {
		h.add(v)
	}
	// Sorted: 0 1 2 3 4 5 L+5 L+10 (the negative sample counts as 0).
	for _, tc := range []struct {
		p    float64
		want int64
	}{
		{0, 0}, {12.5, 0}, {13, 1}, {50, 3}, {75, 5}, {80, latHistLimit + 5}, {100, latHistLimit + 10},
	} {
		if got := h.percentile(tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	h.add(3)
	h.add(3)
	// Now 0 1 2 3 3 3 4 5 L+5 L+10: rank 5 of 10 is one of the three 3s.
	if got := h.percentile(50); got != 3 {
		t.Errorf("percentile(50) = %v, want 3", got)
	}
	if got := h.beyond(3); got != 4 {
		t.Errorf("beyond(3) = %d, want 4", got)
	}
	if got := h.beyond(latHistLimit + 5); got != 1 {
		t.Errorf("beyond(L+5) = %d, want 1", got)
	}
	h.reset()
	if got := h.percentile(50); got != 0 || h.n != 0 {
		t.Errorf("after reset: percentile %v, n %d", got, h.n)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{50, 150, 80, 120, 60, 140, 100, 100, 70, 130}
	for _, tc := range []struct {
		name        string
		prior, cur  []float64
		bound       float64
		better, out string
	}{
		{"inside bound", steady, scale(steady, 1.05), 0.1, "higher", "same"},
		{"higher is better, up", steady, scale(steady, 1.2), 0.1, "higher", "better"},
		{"higher is better, down", steady, scale(steady, 0.8), 0.1, "higher", "worse"},
		{"lower is better, up", steady, scale(steady, 1.2), 0.1, "lower", "worse"},
		{"lower is better, down", steady, scale(steady, 0.8), 0.1, "lower", "better"},
		{"noise wider than bound", noisy, scale(noisy, 1.15), 0.1, "higher", "unresolved"},
		{"noisy but every run better", noisy, scale(noisy, 4), 0.1, "higher", "better"},
	} {
		if got := verdict(tc.prior, tc.cur, tc.bound, tc.better); got != tc.out {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.out)
		}
	}
}
