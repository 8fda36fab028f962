// Package antest is the golden-test harness for countnet analyzers, in
// the spirit of golang.org/x/tools/go/analysis/analysistest but built on
// the offline loader. A testdata package seeds known violations and
// annotates each expected finding in a comment:
//
//	t := time.Now() // want `time\.Now in deterministic package`
//
// The back-quoted strings are regexps matched against the diagnostic
// message; several may follow one want. Because an expectation cannot
// share a line with a //countnet: directive (the directive comment runs
// to end of line), `// wantbelow` registers its expectations for the
// NEXT source line — used for the empty-reason directive finding, which
// is reported at the directive itself:
//
//	// wantbelow `empty reason`
//	//countnet:allow detvet --
//
// Run fails the test on any unmatched expectation or unexpected
// diagnostic, printing both sides.
//
// A testdata directory holding a go.mod is a module of its own, for
// analyzers that judge a package against the rest of its module: every
// package under it, testdata directories included and nested modules
// excluded, is loaded and analyzed as one program.
package antest

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"countnet/internal/analysis"
)

var wantRE = regexp.MustCompile(`//\s*(want|wantbelow)((?:\s+` + "`[^`]*`" + `)+)`)
var patRE = regexp.MustCompile("`([^`]*)`")

// expectation is one want pattern awaiting a diagnostic on its line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run loads the testdata package rooted at dir (relative to the calling
// test, e.g. "../testdata/src/detvet"), or every package of the module
// rooted there, applies the analyzers through the same RunProgram
// pipeline countnetvet uses (so suppression directives are honored), and
// diffs the findings against the want annotations.
//
//countnet:allow apivet -- the golden harness of every analyzer's tests, shared by eight packages
func Run(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := load(abs)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ws, err := parseWants(pkg.Fset.Position(f.Pos()).Filename)
			if err != nil {
				t.Fatal(err)
			}
			wants = append(wants, ws...)
		}
	}
	diags, err := analysis.RunProgram(analysis.NewProgram(pkgs), analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched `%s`", w.file, w.line, w.re)
		}
	}
}

// load returns the package in dir, or every package of the module rooted
// at dir outside its nested modules.
func load(dir string) ([]*analysis.Package, error) {
	if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
		modRoot, err := analysis.FindModuleRoot(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := analysis.LoadDir(modRoot, dir)
		return []*analysis.Package{pkg}, err
	}
	var patterns []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != dir {
			return filepath.SkipDir
		}
		files, _ := filepath.Glob(filepath.Join(path, "*.go"))
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				rel, _ := filepath.Rel(dir, path)
				patterns = append(patterns, "./"+filepath.ToSlash(rel))
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return analysis.Load(dir, patterns)
}

// parseWants extracts the want/wantbelow expectations from one source file.
func parseWants(path string) ([]*expectation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*expectation
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		m := wantRE.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		target := line
		if m[1] == "wantbelow" {
			target = line + 1
		}
		for _, pm := range patRE.FindAllStringSubmatch(m[2], -1) {
			re, err := regexp.Compile(pm[1])
			if err != nil {
				return nil, err
			}
			out = append(out, &expectation{file: path, line: target, re: re})
		}
	}
	return out, sc.Err()
}
