package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"countnet/internal/analysis"
	"countnet/internal/analysis/escvet"
)

// TestRepoClean is the self-hosting gate: the countnetvet suite must
// report zero findings over the whole module. Every intentional
// exception in the tree carries a reasoned //countnet:allow, so a
// failure here is either a real regression or a new exception that
// needs a justification.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	_, file, _, _ := runtime.Caller(0)
	modRoot, err := analysis.FindModuleRoot(filepath.Dir(file))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := runAnalyzers(modRoot, []string{"./..."}, analyzers)
	if errors.Is(err, escvet.ErrToolchain) {
		t.Skipf("escvet toolchain probe failed, self-hosting without it: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestJSONShape keeps the -json output schema stable for the CI
// summary step.
func TestJSONShape(t *testing.T) {
	fs := toJSON([]analysis.Diagnostic{})
	if fs == nil || len(fs) != 0 {
		t.Fatalf("toJSON(nil) = %#v, want empty non-nil slice", fs)
	}
}

// TestExitCode pins the contract: nonzero iff stock vet failed or
// findings remain after allows.
func TestExitCode(t *testing.T) {
	d := analysis.Diagnostic{Analyzer: "detvet", Message: "x"}
	for _, tc := range []struct {
		vetFailed bool
		diags     []analysis.Diagnostic
		want      int
	}{
		{false, nil, 0},
		{false, []analysis.Diagnostic{d}, 1},
		{true, nil, 1},
		{true, []analysis.Diagnostic{d}, 1},
	} {
		if got := exitCode(tc.vetFailed, tc.diags); got != tc.want {
			t.Errorf("exitCode(%v, %d findings) = %d, want %d", tc.vetFailed, len(tc.diags), got, tc.want)
		}
	}
}

// TestJSONStableOrder runs the real driver over a seeded-violation
// testdata package twice and requires byte-identical, totally ordered
// JSON — including ties where several analyzers hit the same position.
func TestJSONStableOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list; skipped in -short")
	}
	runOnce := func() ([]byte, int) {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-novet", "-json", "./internal/analysis/testdata/src/lockvet"}, &stdout, &stderr)
		if stderr.Len() > 0 {
			t.Logf("stderr: %s", stderr.String())
		}
		return stdout.Bytes(), code
	}
	out1, code1 := runOnce()
	out2, code2 := runOnce()
	if code1 != 1 || code2 != 1 {
		t.Fatalf("exit codes %d, %d; want 1 (the package seeds findings)", code1, code2)
	}
	if !bytes.Equal(out1, out2) {
		t.Fatalf("JSON output not stable across runs:\n%s\n--- vs ---\n%s", out1, out2)
	}
	var fs []finding
	if err := json.Unmarshal(out1, &fs); err != nil {
		t.Fatal(err)
	}
	if len(fs) == 0 {
		t.Fatal("no findings decoded; the seeded package should produce some")
	}
	sorted := sort.SliceIsSorted(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	if !sorted {
		t.Errorf("findings not in (file, line, column, analyzer, message) order: %+v", fs)
	}
}

// TestSortTieBreak pins the total order two analyzers reporting the
// same position rely on.
func TestSortTieBreak(t *testing.T) {
	pos := analysis.Diagnostic{}.Pos
	pos.Filename, pos.Line, pos.Column = "a.go", 3, 7
	ds := []analysis.Diagnostic{
		{Pos: pos, Analyzer: "hotvet", Message: "b"},
		{Pos: pos, Analyzer: "atomicvet", Message: "z"},
		{Pos: pos, Analyzer: "hotvet", Message: "a"},
	}
	analysis.Sort(ds)
	got := []string{ds[0].Analyzer + "/" + ds[0].Message, ds[1].Analyzer + "/" + ds[1].Message, ds[2].Analyzer + "/" + ds[2].Message}
	want := []string{"atomicvet/z", "hotvet/a", "hotvet/b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tie-break order %v, want %v", got, want)
		}
	}
}
