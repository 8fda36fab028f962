// Package hotvet enforces the wait-free discipline the paper's
// practical-linearizability argument assumes: Corollary 3.9/3.12 bound
// the reordering window by the balancer traversal time, so a counting
// hot path that blocks on a channel, parks on a mutex, sleeps, defers,
// or allocates silently destroys the (Tog+W)/Tog regime every
// measurement in this repo reports. Functions marked //countnet:hotpath
// — and everything they transitively call within the analyzed program —
// must stay free of:
//
//   - channel operations (send, receive, select, range over a channel)
//     and goroutine spawns;
//   - blocking sync calls (Lock, RLock, Wait, Once.Do) and
//     time.Sleep / runtime.Gosched;
//   - defer (a hot path has no cleanup to schedule, and defer pins the
//     frame);
//   - the cheap static signals of heap allocation: address-taken
//     composite literals, new, make of a map or channel (the compiler's
//     full escape verdict is escvet's job);
//   - interface-method calls that cannot be resolved: calls through
//     interfaces declared outside the program, or with no loaded
//     implementation. Calls through program-declared interfaces are
//     devirtualized — every loaded implementation is walked instead, so
//     `obs.Tracer.Record` is checked through each tracer rather than
//     flagged.
//
// The walk stops at functions marked //countnet:coldpath (a switch slow
// path — the annotation is the reviewed boundary), at program boundaries (a call into a package whose source
// was not loaded is not followed), and at calls through plain function
// values (those are the workload's own injection hooks; the W they add
// is the experiment's variable, not a violation, and escvet still sees
// their allocation). Findings carry the call depth and chain from the
// annotated root, and land at the offending construct — which may be in
// another package, whose own //countnet:allow directives then apply.
package hotvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"countnet/internal/analysis"
)

// Analyzer is the hotvet pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotvet",
	Doc:  "//countnet:hotpath functions and their program-local callees must not block, defer, or allocate",
	Run:  run,
}

// maxDepth bounds the interprocedural walk; a hot path deeper than this
// is itself a finding (the discipline is unreviewable at that depth).
const maxDepth = 12

// blockingSync are the method names on sync package types that park the
// calling goroutine.
var blockingSync = map[string]bool{"Lock": true, "RLock": true, "Wait": true, "Do": true}

func run(pass *analysis.Pass) error {
	if pass.Prog == nil {
		return fmt.Errorf("hotvet requires a program (RunProgram)")
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !pass.Dirs.MarkedFunc("hotpath", pass.Fset, fd) {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			root := pass.Prog.FuncOf(fn)
			if root == nil {
				continue
			}
			w := &walker{
				pass:    pass,
				root:    analysis.FuncDisplay(fn),
				visited: map[*analysis.FuncNode]bool{},
			}
			w.walk(root, nil)
		}
	}
	return nil
}

// walker is one hot-path root's interprocedural traversal state.
type walker struct {
	pass *analysis.Pass
	root string
	// visited guards against cycles and re-walking shared helpers; it is
	// per root, so every root reports its own view of a shared callee.
	visited map[*analysis.FuncNode]bool
}

// report emits one finding with the root, depth, and call chain.
func (w *walker) report(pos token.Pos, fset *token.FileSet, chain []string, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	where := fmt.Sprintf("depth %d", len(chain))
	if len(chain) > 0 {
		where += ", via " + strings.Join(chain, " → ")
	}
	w.pass.ReportAtf(fset.Position(pos), "hot path %s: %s (%s)", w.root, msg, where)
}

// walk checks one function body and descends into its program-local
// callees. chain lists the functions between the root and node
// (node included unless it is the root itself).
func (w *walker) walk(node *analysis.FuncNode, chain []string) {
	if w.visited[node] {
		return
	}
	w.visited[node] = true
	info := node.Pkg.Info
	fset := node.Pkg.Fset
	// Channel operations appearing as a select's comm clause are part of
	// the select finding, not a second one each.
	inSelect := map[ast.Node]bool{}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectStmt:
			w.report(x.Pos(), fset, chain, "select statement (channel rendezvous)")
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					inSelect[commOp(cc.Comm)] = true
				}
			}
		case *ast.SendStmt:
			if !inSelect[x] {
				w.report(x.Pos(), fset, chain, "channel send")
			}
		case *ast.UnaryExpr:
			switch {
			case x.Op == token.ARROW && !inSelect[x]:
				w.report(x.Pos(), fset, chain, "channel receive")
			case x.Op == token.AND:
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					w.report(x.Pos(), fset, chain, "address-taken composite literal (heap allocation)")
				}
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					w.report(x.Pos(), fset, chain, "range over channel")
				}
			}
		case *ast.GoStmt:
			w.report(x.Pos(), fset, chain, "goroutine spawn")
			return false // the spawned body runs off the hot path
		case *ast.DeferStmt:
			w.report(x.Pos(), fset, chain, "defer (schedules work and pins the frame)")
			return false // the deferred body is already covered by the defer finding
		case *ast.CallExpr:
			w.checkCall(node, info, fset, x, chain)
		}
		return true
	})
}

// commOp returns the channel-op node a select comm clause wraps, so the
// generic send/receive cases can skip it.
func commOp(s ast.Stmt) ast.Node {
	switch st := s.(type) {
	case *ast.SendStmt:
		return st
	case *ast.ExprStmt:
		return ast.Unparen(st.X)
	case *ast.AssignStmt:
		if len(st.Rhs) == 1 {
			return ast.Unparen(st.Rhs[0])
		}
	}
	return s
}

// checkCall classifies one call: a known-blocking callee is a finding,
// a program-local callee is walked, an interface call is devirtualized
// over the program's implementations, and everything else (stdlib,
// export-data-only packages, function values, builtins except the
// allocating ones) is a boundary the walk does not cross.
func (w *walker) checkCall(node *analysis.FuncNode, info *types.Info, fset *token.FileSet, call *ast.CallExpr, chain []string) {
	prog := w.pass.Prog
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "new":
				w.report(call.Pos(), fset, chain, "new (heap allocation)")
			case "make":
				switch info.TypeOf(call).Underlying().(type) {
				case *types.Chan:
					w.report(call.Pos(), fset, chain, "make(chan) (heap allocation)")
				case *types.Map:
					w.report(call.Pos(), fset, chain, "make(map) (heap allocation)")
				}
			}
			return
		}
	}
	if iface, isIfaceCall := analysis.InterfaceReceiver(info, call); isIfaceCall {
		name := ast.Unparen(call.Fun).(*ast.SelectorExpr).Sel.Name
		if iface == nil {
			w.report(call.Pos(), fset, chain, "interface-method call %s through an anonymous interface (cannot verify the implementation)", name)
			return
		}
		impls, ok := prog.Devirtualize(iface, name)
		if !ok {
			w.report(call.Pos(), fset, chain, "interface-method call %s.%s on an interface declared outside the program (cannot verify the implementation)", iface.Obj().Name(), name)
			return
		}
		if len(impls) == 0 {
			w.report(call.Pos(), fset, chain, "interface-method call %s.%s with no implementation in the analyzed program", iface.Obj().Name(), name)
			return
		}
		for _, impl := range impls {
			w.descend(impl, fset, call, chain)
		}
		return
	}
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return // function value, conversion, or universe builtin: not followed
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Sleep" {
			w.report(call.Pos(), fset, chain, "time.Sleep (parks the goroutine)")
			return
		}
	case "runtime":
		if fn.Name() == "Gosched" {
			w.report(call.Pos(), fset, chain, "runtime.Gosched (scheduler yield)")
			return
		}
	case "sync":
		if blockingSync[fn.Name()] {
			w.report(call.Pos(), fset, chain, "blocking sync call %s", analysis.FuncDisplay(fn))
			return
		}
	}
	if callee := prog.FuncOf(fn); callee != nil {
		w.descend(callee, fset, call, chain)
	}
}

// descend walks into a resolved callee unless it is marked coldpath or
// the chain is already at the depth bound.
func (w *walker) descend(callee *analysis.FuncNode, fset *token.FileSet, call *ast.CallExpr, chain []string) {
	if callee.Pkg.Directives.MarkedFunc("coldpath", callee.Pkg.Fset, callee.Decl) {
		return
	}
	if len(chain)+1 > maxDepth {
		w.report(call.Pos(), fset, chain, "call depth exceeds %d; annotate a //countnet:coldpath boundary or restructure", maxDepth)
		return
	}
	w.walk(callee, append(chain[:len(chain):len(chain)], analysis.FuncDisplay(callee.Fn)))
}
