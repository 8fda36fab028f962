// Package analysis is the repository's static-analysis framework: a
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) over the standard library's
// go/ast + go/types, plus the countnet directive language that turns the
// paper's invariants into CI-enforced law:
//
//	//countnet:deterministic
//	    marks a package as seed-reproducible: detvet forbids wall-clock
//	    reads, unseeded global randomness, map-iteration ordering, and
//	    goroutine-spawn-order dependence inside it (PR 2's bit-identical
//	    runs per seed rest on this).
//
//	//countnet:allow <analyzer>[,<analyzer>...] -- <reason>
//	    suppresses findings of the named analyzers on the same source
//	    line or the line directly below. An empty reason is itself a
//	    finding, so every suppression carries its justification.
//
//	//countnet:lockorder <A> < <B>
//	    declares that lock A may be held while acquiring lock B; lockvet
//	    flags any nested acquisition without a declared order.
//
//	//countnet:hotpath
//	    marks a function as a counting hot path: hotvet requires it — and
//	    everything it transitively calls within the analyzed program — to
//	    stay free of blocking and heap-allocating constructs, and escvet
//	    diffs the compiler's escape/inline decisions on it against the
//	    package's escapes.golden.
//
//	//countnet:coldpath
//	    marks a function as deliberately off the per-token path (a
//	    parking or lock slow path): hotvet stops its interprocedural
//	    descent at the call, treating the annotation as the reviewed
//	    boundary.
//
// Several directives may share one comment line (each starts its own
// `//countnet:` token; an `allow` consumes the rest of the line and so
// must come last). An unknown verb after `countnet:` is a diagnostic,
// not a silent no-op — a typo in a directive must not disable the law it
// meant to invoke.
//
// The concrete analyzers live in the subpackages detvet, atomicvet,
// obsvet, lockvet, hotvet, escvet, and apivet; cmd/countnetvet runs
// them all (alongside the stock `go vet` suite) over any package
// pattern.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one static check, mirroring x/tools' analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in findings and allow directives.
	Name string
	// Doc is the one-line description shown by countnetvet's usage.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(*Pass) error
}

// Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Dirs holds the package's parsed countnet directives.
	Dirs *Directives
	// Dir is the package's source directory and ModRoot the enclosing
	// module root (escvet shells out to the go tool from there).
	Dir     string
	ModRoot string
	// Prog is the whole-program view interprocedural analyzers walk; it
	// always contains at least the package under analysis.
	Prog *Program

	reportAt func(pos token.Position, msg string)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.reportAt(p.Fset.Position(pos), fmt.Sprintf(format, args...))
}

// ReportAtf records one finding at an already-resolved file position —
// for diagnostics anchored in files outside the FileSet, like a stale
// entry in an escapes.golden.
func (p *Pass) ReportAtf(pos token.Position, format string, args ...any) {
	p.reportAt(pos, fmt.Sprintf(format, args...))
}

// Allow is one parsed //countnet:allow directive.
type Allow struct {
	// Analyzers are the suppressed analyzer names.
	Analyzers []string
	// Reason is the justification after the "--" separator.
	Reason string
	// File and Line locate the directive.
	File string
	Line int
	Pos  token.Pos
}

// Covers reports whether the directive suppresses the named analyzer.
func (a Allow) Covers(analyzer string) bool {
	for _, n := range a.Analyzers {
		if n == analyzer {
			return true
		}
	}
	return false
}

// LockOrder declares that Before may be held while acquiring After.
type LockOrder struct {
	Before, After string
}

// Mark is one parsed annotation-style directive (hotpath, coldpath): a
// verb attached to the declaration on its line, the line below, or — for
// functions — the doc comment it appears in.
type Mark struct {
	// Verb is the directive name after "countnet:".
	Verb string
	// Args is the free text after the verb (unused by the current verbs;
	// kept so a future verb can take parameters without a grammar break).
	Args string
	// File and Line locate the directive.
	File string
	Line int
	Pos  token.Pos
}

// Directives is a package's parsed countnet directive set.
type Directives struct {
	// Deterministic is true when any file carries //countnet:deterministic.
	Deterministic bool
	// LockOrders lists the declared nested-acquisition orders.
	LockOrders []LockOrder
	// Marks lists the parsed annotation directives (hotpath, coldpath).
	Marks []Mark
	// Unknown lists directives whose verb no analyzer understands; each
	// becomes a finding, so a typo cannot silently disable a check.
	Unknown []Mark
	// allows maps "file:line" of the directive to the parsed form.
	allows map[string][]Allow
}

// markVerbs are the annotation verbs analyzers look up through Marked*.
var markVerbs = map[string]bool{
	"hotpath":  true,
	"coldpath": true,
}

// allowRE parses "allow detvet,obsvet -- reason text" (the segment after
// "//countnet:"). The reason separator is mandatory so a missing
// justification is detectable.
var allowRE = regexp.MustCompile(`^allow\s+([\w,\s]+?)\s*--\s*(.*)$`)

// lockOrderRE parses "lockorder A < B".
var lockOrderRE = regexp.MustCompile(`^lockorder\s+(\S+)\s*<\s*(\S+)\s*$`)

// ParseDirectives scans every comment of the package's files.
func ParseDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{allows: make(map[string][]Allow)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d.parseComment(fset, c)
			}
		}
	}
	return d
}

// parseComment parses every directive in one comment. A line may carry
// several (`//countnet:hotpath //countnet:coldpath` is two); each "//countnet:"
// token starts a new one, so an `allow` — whose reason runs to end of
// line — must be the last directive on its line.
func (d *Directives) parseComment(fset *token.FileSet, c *ast.Comment) {
	// Directive position only: the comment must begin "//countnet:" with
	// no space, like any Go tool directive. Prose and indented doc
	// examples that merely mention a directive are not directives.
	text := c.Text
	if !strings.HasPrefix(text, "//countnet:") {
		return
	}
	pos := fset.Position(c.Pos())
	for _, seg := range strings.Split(text, "//countnet:")[1:] {
		seg = strings.TrimSpace(seg)
		verb, args := seg, ""
		if i := strings.IndexAny(seg, " \t"); i >= 0 {
			verb, args = seg[:i], strings.TrimSpace(seg[i+1:])
		}
		d.parseDirective(verb, args, pos, c.Pos())
	}
}

func (d *Directives) parseDirective(verb, args string, pos token.Position, tpos token.Pos) {
	switch {
	case verb == "deterministic":
		d.Deterministic = true
	case verb == "lockorder":
		if m := lockOrderRE.FindStringSubmatch(verb + " " + args); m != nil {
			d.LockOrders = append(d.LockOrders, LockOrder{Before: m[1], After: m[2]})
		}
	case verb == "allow":
		a := Allow{File: pos.Filename, Line: pos.Line, Pos: tpos}
		if m := allowRE.FindStringSubmatch(verb + " " + args); m != nil {
			for _, name := range strings.Split(m[1], ",") {
				if name = strings.TrimSpace(name); name != "" {
					a.Analyzers = append(a.Analyzers, name)
				}
			}
			a.Reason = strings.TrimSpace(m[2])
		}
		key := allowKey(pos.Filename, pos.Line)
		d.allows[key] = append(d.allows[key], a)
	case markVerbs[verb]:
		d.Marks = append(d.Marks, Mark{Verb: verb, Args: args, File: pos.Filename, Line: pos.Line, Pos: tpos})
	default:
		d.Unknown = append(d.Unknown, Mark{Verb: verb, Args: args, File: pos.Filename, Line: pos.Line, Pos: tpos})
	}
}

// MarkedFunc reports whether decl carries the verb directive: in its doc
// comment, on the line of the declaration itself, or the line directly
// above it.
func (d *Directives) MarkedFunc(verb string, fset *token.FileSet, decl *ast.FuncDecl) bool {
	declPos := fset.Position(decl.Pos())
	lo := declPos.Line - 1
	if decl.Doc != nil {
		if p := fset.Position(decl.Doc.Pos()); p.Line < lo {
			lo = p.Line
		}
	}
	for _, m := range d.Marks {
		if m.Verb == verb && m.File == declPos.Filename && m.Line >= lo && m.Line <= declPos.Line {
			return true
		}
	}
	return false
}

func allowKey(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }

// Allowed reports whether a finding of the named analyzer at pos is
// suppressed: an allow directive covering the analyzer sits on the same
// line or the line directly above, and carries a non-empty reason.
func (d *Directives) Allowed(analyzer string, pos token.Position) bool {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, a := range d.allows[allowKey(pos.Filename, line)] {
			if a.Covers(analyzer) && a.Reason != "" {
				return true
			}
		}
	}
	return false
}

// HasLockOrder reports whether holding `before` while acquiring `after`
// was declared legal.
func (d *Directives) HasLockOrder(before, after string) bool {
	for _, lo := range d.LockOrders {
		if lo.Before == before && lo.After == after {
			return true
		}
	}
	return false
}

// DirectiveCheckName is the pseudo-analyzer name under which malformed
// directives (an allow with an empty reason) are reported. It cannot be
// suppressed.
const DirectiveCheckName = "directive"

// RunProgram runs the analyzers over every package of the program and
// returns the surviving findings: suppressed diagnostics are dropped
// (an allow is resolved against the directives of the package owning
// the finding's file, so interprocedural findings positioned in a
// callee's package honor that package's allows), duplicates from
// overlapping walks are folded, every allow directive with an empty
// reason becomes a finding of its own, and so does every directive
// whose verb no analyzer knows — a justification-free suppression or a
// typoed directive fails CI.
func RunProgram(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	seen := map[Diagnostic]bool{}
	for _, pkg := range prog.Packages {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Dirs:      pkg.Directives,
				Dir:       pkg.Dir,
				ModRoot:   pkg.ModRoot,
				Prog:      prog,
			}
			name := a.Name
			pass.reportAt = func(pos token.Position, msg string) {
				dirs := pkg.Directives
				if owner := prog.PackageFor(pos.Filename); owner != nil {
					dirs = owner.Directives
				}
				if dirs.Allowed(name, pos) {
					return
				}
				d := Diagnostic{Pos: pos, Analyzer: name, Message: msg}
				if seen[d] {
					return
				}
				seen[d] = true
				out = append(out, d)
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
		for _, allows := range pkg.Directives.allows {
			for _, a := range allows {
				if a.Reason == "" || len(a.Analyzers) == 0 {
					out = append(out, Diagnostic{
						Pos:      pkg.Fset.Position(a.Pos),
						Analyzer: DirectiveCheckName,
						Message:  "countnet:allow directive with empty reason (write `//countnet:allow <analyzer> -- <why>`)",
					})
				}
			}
		}
		for _, u := range pkg.Directives.Unknown {
			out = append(out, Diagnostic{
				Pos:      token.Position{Filename: u.File, Line: u.Line},
				Analyzer: DirectiveCheckName,
				Message:  fmt.Sprintf("unknown countnet directive %q (known verbs: allow, coldpath, deterministic, hotpath, lockorder)", u.Verb),
			})
		}
	}
	Sort(out)
	return out, nil
}

// Sort orders findings by file, line, column, analyzer, then message —
// a total order, so merged outputs (several analyzers hitting the same
// position) render identically run to run.
func Sort(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
