package escvet_test

import (
	"path/filepath"
	"strings"
	"testing"

	"countnet/internal/analysis"
	"countnet/internal/analysis/antest"
	"countnet/internal/analysis/escvet"
)

func TestEscvet(t *testing.T) {
	antest.Run(t, "../testdata/src/escvet", escvet.Analyzer)
}

// TestEscvetStale covers the allowlist-rot direction: a golden entry the
// compiler no longer emits must be reported at the golden file itself.
// antest cannot express this (want annotations live in Go sources), so
// the finding is asserted directly.
func TestEscvetStale(t *testing.T) {
	abs, err := filepath.Abs("../testdata/src/escvetstale")
	if err != nil {
		t.Fatal(err)
	}
	modRoot, err := analysis.FindModuleRoot(abs)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.LoadDir(modRoot, abs)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunProgram(analysis.NewProgram([]*analysis.Package{pkg}), []*analysis.Analyzer{escvet.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly the stale-entry one: %v", len(diags), diags)
	}
	d := diags[0]
	if filepath.Base(d.Pos.Filename) != escvet.GoldenName {
		t.Errorf("finding positioned at %s, want the %s file", d.Pos.Filename, escvet.GoldenName)
	}
	if d.Pos.Line != 2 {
		t.Errorf("finding at line %d, want 2 (the stale entry's line)", d.Pos.Line)
	}
	want := `stale escapes.golden entry "a.go:Clean: moved to heap: x"`
	if !strings.Contains(d.Message, want) {
		t.Errorf("message %q does not contain %q", d.Message, want)
	}
}
