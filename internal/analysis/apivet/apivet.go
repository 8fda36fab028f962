// Package apivet reports test-only API: every exported function or
// method declared in a non-test file under internal/ that no non-test
// code references. Such a symbol is either dead code kept alive by its
// own tests or a fixture that belongs in a test file; the ones that stay
// carry `//countnet:allow apivet -- <reason>`, and those allows are the
// repository's one checked list of test-only API.
//
// References are collected from the whole module, whatever packages the
// run was given: every package of the root module (cmd/ and examples/
// included) and of each module nested in it (bench/), non-test files
// only. So a run over a subset judges only the subset's declarations,
// against callers anywhere. A symbol counts as reached when non-test
// code
//
//   - names it (a call, a method value, a function value);
//   - converts a value of its receiver type to an interface whose method
//     it implements (heap.Interface, error, an in-module interface);
//   - converts a value of its receiver type to any interface, when the
//     method is one the standard library or module code looks up
//     dynamically: fmt's String, Error, GoString and Format, or a method
//     of an interface that non-test code type-asserts to.
//
// Methods of generic types resolve through their origin, so calling
// Cap on a Queue[int] reaches Queue[T].Cap. Declarations and references
// under testdata directories are ignored.
package apivet

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"

	"countnet/internal/analysis"
)

// Analyzer is the apivet pass.
var Analyzer = &analysis.Analyzer{
	Name: "apivet",
	Doc:  "exported functions and methods under internal/ that only tests reference",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !judged(pass.ModRoot, pass.Dir) {
		return nil
	}
	reached, err := reachedSet(pass)
	if err != nil {
		return err
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || reached[analysis.FuncKey(fn)] {
				continue
			}
			pass.Reportf(fd.Name.Pos(), "exported %s has no non-test reference: delete it, or keep it with //countnet:allow apivet -- <reason>", analysis.FuncDisplay(fn))
		}
	}
	return nil
}

// judged reports whether the package in dir is under the module's
// internal/ tree and outside any testdata directory.
func judged(modRoot, dir string) bool {
	rel, err := filepath.Rel(modRoot, dir)
	if err != nil {
		return false
	}
	parts := strings.Split(filepath.ToSlash(rel), "/")
	if parts[0] != "internal" {
		return false
	}
	for _, p := range parts {
		if p == "testdata" {
			return false
		}
	}
	return true
}

// cache holds the reached set of the last program analyzed: the module
// is loaded and walked once per run, not once per judged package.
// RunProgram runs one pass at a time, so the cache needs no lock.
var cache struct {
	prog    *analysis.Program
	reached map[string]bool
	err     error
}

func reachedSet(pass *analysis.Pass) (map[string]bool, error) {
	if cache.prog != pass.Prog {
		pkgs, err := analysis.LoadModule(pass.ModRoot)
		cache.prog, cache.reached, cache.err = pass.Prog, nil, err
		if err == nil {
			cache.reached = references(pkgs)
		}
	}
	return cache.reached, cache.err
}

// conversion is one non-test site where a value of a concrete type
// becomes an interface value.
type conversion struct {
	from types.Type
	to   *types.Interface
}

// walker collects one module's references. Keys are analysis.FuncKey
// strings, so they compare across the separately type-checked universes
// of the judged program and the module.
type walker struct {
	info    *types.Info
	reached map[string]bool
	convs   []conversion
	// dynamic holds "Name signature" of the methods reached through any
	// interface conversion, because something asserts to them at run time.
	dynamic map[string]bool
}

func references(pkgs []*analysis.Package) map[string]bool {
	w := &walker{
		reached: map[string]bool{},
		dynamic: map[string]bool{
			"Error func() string":          true,
			"String func() string":         true,
			"GoString func() string":       true,
			"Format func(fmt.State, rune)": true,
		},
	}
	for _, pkg := range pkgs {
		w.info = pkg.Info
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				var self string
				var sig *types.Signature
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						self, sig = analysis.FuncKey(fn), fn.Type().(*types.Signature)
					}
				}
				w.inspect(decl, self, sig)
			}
		}
	}
	for _, c := range w.convs {
		for i := 0; i < c.to.NumMethods(); i++ {
			m := c.to.Method(i)
			obj, _, _ := types.LookupFieldOrMethod(c.from, false, m.Pkg(), m.Name())
			w.reach(obj, "")
		}
		mset := types.NewMethodSet(c.from)
		for i := 0; i < mset.Len(); i++ {
			if fn, ok := mset.At(i).Obj().(*types.Func); ok && w.dynamic[methodKey(fn)] {
				w.reach(fn, "")
			}
		}
	}
	return w.reached
}

// methodKey renders a method as "Name signature" for dynamic lookups.
func methodKey(fn *types.Func) string {
	return fn.Name() + " " + analysis.SigKey(fn.Type().(*types.Signature))
}

// reach marks obj reached unless it is the function being walked (a
// recursive call does not keep a function alive).
func (w *walker) reach(obj types.Object, self string) {
	if fn, ok := obj.(*types.Func); ok {
		if k := analysis.FuncKey(fn.Origin()); k != "" && k != self {
			w.reached[k] = true
		}
	}
}

// inspect walks n, the body of a function with signature sig (nil
// outside functions), recording references and interface conversions.
func (w *walker) inspect(n ast.Node, self string, sig *types.Signature) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			w.reach(w.info.Uses[x], self)
		case *ast.FuncLit:
			w.inspect(x.Body, self, w.info.TypeOf(x).(*types.Signature))
			return false
		case *ast.CallExpr:
			w.call(x)
		case *ast.AssignStmt:
			var to []types.Type
			for _, l := range x.Lhs {
				to = append(to, w.info.TypeOf(l))
			}
			w.assign(to, x.Rhs)
		case *ast.ValueSpec:
			if x.Type != nil {
				to := make([]types.Type, len(x.Names))
				for i := range to {
					to[i] = w.info.TypeOf(x.Type)
				}
				w.assign(to, x.Values)
			}
		case *ast.ReturnStmt:
			if sig != nil {
				w.assign(tupleTypes(sig.Results()), x.Results)
			}
		case *ast.CompositeLit:
			w.composite(x)
		case *ast.SendStmt:
			if ch, ok := coreType(w.info.TypeOf(x.Chan)).(*types.Chan); ok {
				w.convert(ch.Elem(), w.info.TypeOf(x.Value))
			}
		case *ast.TypeAssertExpr:
			if x.Type != nil {
				w.asserted(w.info.TypeOf(x.Type))
			}
		case *ast.CaseClause:
			for _, e := range x.List {
				if tv := w.info.Types[e]; tv.IsType() {
					w.asserted(tv.Type)
				}
			}
		}
		return true
	})
}

// call records the conversions of a call's arguments to its parameter
// types, and of an explicit conversion's operand.
func (w *walker) call(x *ast.CallExpr) {
	tv := w.info.Types[x.Fun]
	switch {
	case tv.IsType():
		if len(x.Args) == 1 {
			w.convert(tv.Type, w.info.TypeOf(x.Args[0]))
		}
	case tv.IsBuiltin():
		if len(x.Args) > 1 && !x.Ellipsis.IsValid() {
			if s, ok := coreType(w.info.TypeOf(x.Args[0])).(*types.Slice); ok { // append
				for _, a := range x.Args[1:] {
					w.convert(s.Elem(), w.info.TypeOf(a))
				}
			}
		}
	default:
		sig, ok := coreType(tv.Type).(*types.Signature)
		if !ok {
			return
		}
		params := tupleTypes(sig.Params())
		if sig.Variadic() && !x.Ellipsis.IsValid() {
			last := coreType(params[len(params)-1]).(*types.Slice).Elem()
			params = params[:len(params)-1]
			for len(params) < len(x.Args) {
				params = append(params, last)
			}
		}
		w.assign(params, x.Args)
	}
}

// composite records the conversions of a composite literal's elements
// to its field, element and key types.
func (w *walker) composite(x *ast.CompositeLit) {
	switch t := coreType(w.info.TypeOf(x)).(type) {
	case *types.Struct:
		for i, e := range x.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok && w.info.Uses[id] != nil {
					w.convert(w.info.Uses[id].Type(), w.info.TypeOf(kv.Value))
				}
			} else if i < t.NumFields() {
				w.convert(t.Field(i).Type(), w.info.TypeOf(e))
			}
		}
	case *types.Slice, *types.Array, *types.Map:
		var key, elem types.Type
		switch t := t.(type) {
		case *types.Slice:
			elem = t.Elem()
		case *types.Array:
			elem = t.Elem()
		case *types.Map:
			key, elem = t.Key(), t.Elem()
		}
		for _, e := range x.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				if key != nil {
					w.convert(key, w.info.TypeOf(kv.Key))
				}
				e = kv.Value
			}
			w.convert(elem, w.info.TypeOf(e))
		}
	}
}

// assign records the conversions of values to targets, pairwise, or
// from the results of a single multi-value call.
func (w *walker) assign(to []types.Type, values []ast.Expr) {
	var from []types.Type
	if len(values) == 1 && len(to) > 1 {
		if tup, ok := w.info.TypeOf(values[0]).(*types.Tuple); ok {
			from = tupleTypes(tup)
		}
	} else {
		for _, v := range values {
			from = append(from, w.info.TypeOf(v))
		}
	}
	for i := range from {
		if i < len(to) {
			w.convert(to[i], from[i])
		}
	}
}

// convert records a value of type from becoming a value of type to, when
// that turns a concrete value into an interface value.
func (w *walker) convert(to, from types.Type) {
	if to == nil || from == nil || types.IsInterface(from) {
		return
	}
	if it, ok := to.Underlying().(*types.Interface); ok {
		w.convs = append(w.convs, conversion{from: from, to: it})
	}
}

// asserted adds the methods of a type-assertion target to the set
// reached through any interface conversion.
func (w *walker) asserted(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			w.dynamic[methodKey(it.Method(i))] = true
		}
	}
}

func tupleTypes(t *types.Tuple) []types.Type {
	out := make([]types.Type, t.Len())
	for i := range out {
		out[i] = t.At(i).Type()
	}
	return out
}

// coreType is t's underlying type, or nil for a nil type.
func coreType(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}
