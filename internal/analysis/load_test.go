package analysis

import (
	"go/token"
	"testing"
)

// TestLoadRepoPackage exercises the export-data loader end to end on a
// real package of this module (one that imports both stdlib and module
// packages), proving the offline import resolution works.
func TestLoadRepoPackage(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, []string{"countnet/internal/sim"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Path != "countnet/internal/sim" {
		t.Fatalf("path %q", p.Path)
	}
	if p.Types.Scope().Lookup("Run") == nil {
		t.Errorf("sim.Run not found in type-checked package")
	}
	if len(p.Info.Uses) == 0 {
		t.Errorf("no uses recorded")
	}
}

// TestDirectiveParsing covers the directive grammar: allow lists,
// reasons, empty reasons, lockorder, and the deterministic marker.
func TestDirectiveParsing(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(root, "testdata/src/suppress")
	if err != nil {
		t.Fatal(err)
	}
	d := pkg.Directives
	if !d.Deterministic {
		t.Errorf("deterministic directive not seen")
	}
	if !d.HasLockOrder("T.a", "T.b") {
		t.Errorf("lockorder T.a < T.b not parsed")
	}
	if d.HasLockOrder("T.b", "T.a") {
		t.Errorf("lockorder is not symmetric")
	}
	// Two directives share one comment line on function both.
	var verbs []string
	for _, m := range d.Marks {
		verbs = append(verbs, m.Verb)
	}
	for _, want := range []string{"hotpath", "coldpath"} {
		found := false
		for _, v := range verbs {
			if v == want {
				found = true
			}
		}
		if !found {
			t.Errorf("mark %q not parsed from the multi-directive line (got %v)", want, verbs)
		}
	}
	if len(d.Unknown) != 1 || d.Unknown[0].Verb != "hotpathh" {
		t.Errorf("unknown-verb capture: got %+v, want one entry with verb hotpathh", d.Unknown)
	}
}

func TestAllowedLineScope(t *testing.T) {
	d := &Directives{allows: map[string][]Allow{
		"f.go:10": {{Analyzers: []string{"detvet"}, Reason: "why", File: "f.go", Line: 10}},
	}}
	for _, tc := range []struct {
		analyzer string
		line     int
		want     bool
	}{
		{"detvet", 10, true},  // same line
		{"detvet", 11, true},  // directive on preceding line
		{"detvet", 12, false}, // too far
		{"detvet", 9, false},  // directive below the finding does not count
		{"obsvet", 10, false}, // different analyzer
	} {
		got := d.Allowed(tc.analyzer, token.Position{Filename: "f.go", Line: tc.line})
		if got != tc.want {
			t.Errorf("Allowed(%s, line %d) = %v, want %v", tc.analyzer, tc.line, got, tc.want)
		}
	}
}
