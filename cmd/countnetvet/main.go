// Command countnetvet is the repo's multichecker: it runs stock go vet
// and the six countnet domain analyzers over the requested packages
// and exits nonzero on any finding.
//
// Usage:
//
//	countnetvet [-novet] [-json] [packages]
//
// Packages default to ./... resolved against the enclosing module. The
// analyzers:
//
//	detvet    seed-reproducibility in //countnet:deterministic packages
//	atomicvet no plain access to fields used with sync/atomic
//	obsvet    nil-guarded observability so disabled obs costs nothing
//	lockvet   lock copies, leaked critical sections, undeclared nesting
//	hotvet    //countnet:hotpath call trees free of blocking and allocation
//	escvet    compiler escape/inline decisions pinned to escapes.golden
//
// The suite runs over the whole loaded program at once, so hotvet's
// interprocedural walk crosses package boundaries wherever source was
// loaded. Findings are suppressed by `//countnet:allow <analyzer> --
// <reason>` on the offending line or the line above (resolved against
// the package owning the finding); an empty reason or an unknown
// directive verb is itself a finding (analyzer name "directive") so CI
// rejects justification-free suppressions and typoed laws.
//
// escvet needs a toolchain that can replay `go build -gcflags=-m`; when
// it cannot, countnetvet logs a notice and continues without escvet,
// unless LINT_STRICT=1 makes the degradation fatal.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"

	"countnet/internal/analysis"
	"countnet/internal/analysis/atomicvet"
	"countnet/internal/analysis/detvet"
	"countnet/internal/analysis/escvet"
	"countnet/internal/analysis/hotvet"
	"countnet/internal/analysis/lockvet"
	"countnet/internal/analysis/obsvet"
)

// analyzers is the countnetvet suite, in report order.
var analyzers = []*analysis.Analyzer{
	detvet.Analyzer,
	atomicvet.Analyzer,
	obsvet.Analyzer,
	lockvet.Analyzer,
	hotvet.Analyzer,
	escvet.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("countnetvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	noVet := fs.Bool("novet", false, "skip the stock `go vet` pass")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array")
	list := fs.Bool("list", false, "list the domain analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: countnetvet [-novet] [-json] [packages]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	modRoot, err := analysis.FindModuleRoot(wd)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	vetFailed := false
	if !*noVet {
		cmd := exec.Command("go", "vet", "-C", modRoot)
		cmd.Args = append(cmd.Args, patterns...)
		cmd.Stdout = stderr // vet findings are diagnostics, not data
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			vetFailed = true
		}
	}

	diags, err := runAnalyzers(modRoot, patterns, analyzers)
	if err != nil && errors.Is(err, escvet.ErrToolchain) && os.Getenv("LINT_STRICT") != "1" {
		fmt.Fprintf(stderr, "countnetvet: notice: escvet skipped (set LINT_STRICT=1 to make this fatal): %v\n", err)
		diags, err = runAnalyzers(modRoot, patterns, withoutEscvet(analyzers))
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(toJSON(diags)); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	return exitCode(vetFailed, diags)
}

// exitCode is the contract CI relies on: nonzero iff stock vet failed
// or findings remain after allows.
func exitCode(vetFailed bool, diags []analysis.Diagnostic) int {
	if vetFailed || len(diags) > 0 {
		return 1
	}
	return 0
}

// withoutEscvet filters the suite for toolchains that cannot replay
// -gcflags=-m output.
func withoutEscvet(suite []*analysis.Analyzer) []*analysis.Analyzer {
	out := make([]*analysis.Analyzer, 0, len(suite))
	for _, a := range suite {
		if a != escvet.Analyzer {
			out = append(out, a)
		}
	}
	return out
}

// runAnalyzers loads the packages and applies the suite to the whole
// program at once, so interprocedural walks cross package boundaries.
// The returned findings are in the stable (file, line, column, analyzer,
// message) order.
func runAnalyzers(modRoot string, patterns []string, suite []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	pkgs, err := analysis.Load(modRoot, patterns)
	if err != nil {
		return nil, err
	}
	return analysis.RunProgram(analysis.NewProgram(pkgs), suite)
}

// finding is the stable JSON shape of one diagnostic.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func toJSON(diags []analysis.Diagnostic) []finding {
	out := make([]finding, 0, len(diags))
	for _, d := range diags {
		out = append(out, finding{
			File: d.Pos.Filename, Line: d.Pos.Line, Column: d.Pos.Column,
			Analyzer: d.Analyzer, Message: d.Message,
		})
	}
	return out
}
