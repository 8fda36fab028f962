// Package obsvet protects the Section 5 measurement-non-perturbation
// invariant: observability disabled must cost nothing on the hot path
// (PR 2 locks this down with 0 allocs/op benchmarks). Engines hold nil
// Tracer/metric pointers when disabled, so every call on an obs-typed
// value must be provably guarded. A call site is accepted when any of
// these hold:
//
//   - it sits in the body of an `if X != nil` (or the else of an
//     `if X == nil`) where X is the receiver or one of its prefixes
//     (`if s.tr != nil { s.tr.Record(...) }`, `if o.depth != nil {
//     o.depth[id].Add(1) }`);
//   - an earlier statement in an enclosing block is a terminating nil
//     guard on a prefix (`o := n.obs; if o == nil { return ... }` — this
//     is also how nil-safe wrapper methods like simMetrics pass: the
//     receiver's own `if m == nil { return }` guard covers every
//     `m.<metric>` call after it);
//   - the receiver roots in a value bound from a *obs.Registry method
//     call (`cells := reg.Counter("x")`) or an obs.New* constructor
//     (`clock := obs.NewClock()`), which never return nil;
//   - a field in the receiver chain carries a field-declaration
//     `//countnet:allow obsvet -- <reason>` stating the field is never
//     nil by construction (the combine.Funnel pattern, where New
//     substitutes no-op instances when metrics are disabled).
//
// The obs package itself is exempt: implementations cannot nil-guard
// their own receivers.
package obsvet

import (
	"go/ast"
	"go/token"
	"go/types"

	"countnet/internal/analysis"
)

// Analyzer is the obsvet pass.
var Analyzer = &analysis.Analyzer{
	Name: "obsvet",
	Doc:  "every Tracer/metrics call must be nil-guarded so disabled observability costs nothing",
	Run:  run,
}

// ObsPath is the import path of the observability package whose types
// are hot-path hazards.
const ObsPath = "countnet/internal/obs"

// checkedTypes are the obs types whose methods must only be called
// behind a guard. Registry is deliberately absent: registration happens
// on setup paths, not hot paths, and a nil registry panics loudly in
// tests rather than silently perturbing measurement.
var checkedTypes = map[string]bool{
	"Tracer": true, "Ring": true, "Counter": true, "Gauge": true,
	"MinMax": true, "Histogram": true, "Ratio": true,
	// The causal span layer: engines hold a nil *Clock when tracing is
	// off, so span stamping sits under the same zero-cost rule.
	"Clock": true,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == ObsPath {
		return nil
	}
	fromReg := registrySourced(pass)
	for _, f := range pass.Files {
		analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv := sel.X
			t := pass.TypesInfo.TypeOf(recv)
			if t == nil || !isCheckedObsType(t) {
				return true
			}
			if guarded(pass, recv, stack) || fieldAllowed(pass, recv) ||
				registrySafe(pass, recv, fromReg) {
				return true
			}
			pass.Reportf(call.Pos(),
				"unguarded %s call on %s: guard with a nil check (or an EnableObs gate) so disabled observability costs nothing",
				sel.Sel.Name, types.TypeString(t, shortQualifier(pass.Pkg)))
			return true
		})
	}
	return nil
}

// registrySourced collects the variables bound directly from a
// *obs.Registry method call (m := reg.Counter("x")) or an obs.New*
// constructor (clock := obs.NewClock()). Neither ever returns nil — the
// registry substitutes a live metric on first use, constructors allocate
// — so calls through such variables need no guard.
func registrySourced(pass *analysis.Pass) map[types.Object]bool {
	out := map[types.Object]bool{}
	mark := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isNonNilSource(pass, call) {
			return
		}
		if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
			out[obj] = true
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if len(x.Lhs) == len(x.Rhs) {
					for i := range x.Lhs {
						mark(x.Lhs[i], x.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(x.Names) == len(x.Values) {
					for i := range x.Names {
						mark(x.Names[i], x.Values[i])
					}
				}
			}
			return true
		})
	}
	return out
}

// isNonNilSource reports whether call provably returns a non-nil obs
// value: a method call on *obs.Registry, or an obs package-level New*
// constructor (NewClock, NewRing, ...).
func isNonNilSource(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if analysis.IsNamed(pass.TypesInfo.TypeOf(sel.X), ObsPath, "Registry") {
		return true
	}
	fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == ObsPath && len(fn.Name()) > 3 && fn.Name()[:3] == "New"
}

// registrySafe reports whether the receiver chain roots in a value that
// cannot be nil: a variable bound from a Registry call or obs.New*
// constructor, or such a call chained directly (reg.Counter("x").Inc()).
func registrySafe(pass *analysis.Pass, recv ast.Expr, fromReg map[types.Object]bool) bool {
	for _, p := range analysis.ExprPrefixes(recv) {
		switch x := p.(type) {
		case *ast.Ident:
			if obj := pass.TypesInfo.ObjectOf(x); obj != nil && fromReg[obj] {
				return true
			}
		case *ast.CallExpr:
			if isNonNilSource(pass, x) {
				return true
			}
		}
	}
	return false
}

// shortQualifier renders foreign types as pkgname.Type (not the full
// import path) and local types bare.
func shortQualifier(local *types.Package) types.Qualifier {
	return func(p *types.Package) string {
		if p == local {
			return ""
		}
		return p.Name()
	}
}

func isCheckedObsType(t types.Type) bool {
	n := analysis.NamedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == ObsPath && checkedTypes[obj.Name()]
}

// guarded reports whether some prefix of recv is nil-checked on the path
// to the call: an enclosing if/else arm, or an earlier terminating
// `if X == nil` guard in an enclosing block.
func guarded(pass *analysis.Pass, recv ast.Expr, stack []ast.Node) bool {
	prefixes := analysis.ExprPrefixes(recv)
	covers := func(e ast.Expr) bool {
		for _, p := range prefixes {
			if analysis.SameExpr(pass.TypesInfo, e, p) {
				return true
			}
		}
		return false
	}
	for i, n := range stack {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		// Which arm is the call in?
		var arm ast.Node
		if i+1 < len(stack) {
			arm = stack[i+1]
		}
		op := token.NEQ // body arm: `if X != nil { call }`
		if arm == ifs.Else {
			op = token.EQL // else arm: `if X == nil {} else { call }`
		}
		for _, e := range analysis.NilComparisons(ifs.Cond, op) {
			if covers(e) {
				return true
			}
		}
	}
	// Early-return guards in enclosing blocks.
	for i, n := range stack {
		block, ok := n.(*ast.BlockStmt)
		if !ok || i+1 >= len(stack) {
			continue
		}
		for _, stmt := range block.List {
			if stmt == stack[i+1] {
				break // statements past the call site cannot guard it
			}
			ifs, ok := stmt.(*ast.IfStmt)
			if !ok || ifs.Else != nil || len(ifs.Body.List) == 0 {
				continue
			}
			if !analysis.Terminates(ifs.Body.List[len(ifs.Body.List)-1]) {
				continue
			}
			for _, e := range analysis.NilComparisons(ifs.Cond, token.EQL) {
				if covers(e) {
					return true
				}
			}
		}
	}
	return false
}

// fieldAllowed reports whether any field in the receiver chain carries a
// same-package field-declaration allow for obsvet, sanctioning every use
// of that field.
func fieldAllowed(pass *analysis.Pass, recv ast.Expr) bool {
	for _, p := range analysis.ExprPrefixes(recv) {
		sel, ok := p.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		v, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Var)
		if !ok || !v.IsField() || v.Pkg() != pass.Pkg {
			continue
		}
		if pass.Dirs.Allowed("obsvet", pass.Fset.Position(v.Pos())) {
			return true
		}
	}
	return false
}
