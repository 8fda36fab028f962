package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Program is the whole-program view interprocedural analyzers walk: every
// loaded package plus a cross-package function index. Packages are
// type-checked independently against compiler export data, so the same
// function is represented by distinct *types.Func objects in each
// importer's universe; the index therefore keys functions by their
// universe-independent path "pkgpath.(Recv).Name" rather than by object
// identity.
type Program struct {
	// Packages are the loaded packages, sorted by import path.
	Packages []*Package

	byPath map[string]*Package
	byFile map[string]*Package
	funcs  map[string]*FuncNode
	// concrete lists every non-generic named non-interface type declared
	// in a loaded package — the devirtualization candidate set.
	concrete []concreteType
}

type concreteType struct {
	named *types.Named
	pkg   *Package
}

// FuncNode is one function with loaded source: the declaration, its
// package, and its (defining universe) object.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
}

// NewProgram indexes the loaded packages for interprocedural analysis.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{
		Packages: pkgs,
		byPath:   make(map[string]*Package, len(pkgs)),
		byFile:   make(map[string]*Package),
		funcs:    make(map[string]*FuncNode),
	}
	for _, pkg := range pkgs {
		p.byPath[pkg.Path] = pkg
		for _, f := range pkg.Files {
			p.byFile[pkg.Fset.Position(f.Pos()).Filename] = pkg
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if !ok || d.Body == nil {
						continue
					}
					p.funcs[FuncKey(fn)] = &FuncNode{Fn: fn, Decl: d, Pkg: pkg}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						obj, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
						if !ok {
							continue
						}
						named, ok := obj.Type().(*types.Named)
						if !ok || named.TypeParams().Len() > 0 {
							continue // aliases and uninstantiated generics
						}
						if types.IsInterface(named) {
							continue
						}
						p.concrete = append(p.concrete, concreteType{named: named, pkg: pkg})
					}
				}
			}
		}
	}
	return p
}

// PackageFor returns the loaded package owning the given source file, or
// nil for files outside the program.
func (p *Program) PackageFor(filename string) *Package { return p.byFile[filename] }

// FuncOf resolves any universe's *types.Func to its loaded declaration,
// or nil when the function's source is not part of the program (stdlib,
// export-data-only dependencies, function literals).
func (p *Program) FuncOf(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	return p.funcs[FuncKey(fn)]
}

// FuncKey returns fn's universe-independent index key,
// "pkgpath.(Recv).Name". Functions without a package (error.Error,
// builtins) key to "".
func FuncKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := types.Unalias(sig.Recv().Type())
		if ptr, ok := t.(*types.Pointer); ok {
			t = types.Unalias(ptr.Elem())
		}
		if n, ok := t.(*types.Named); ok {
			recv = n.Obj().Name()
		}
	}
	return fn.Pkg().Path() + ".(" + recv + ")." + fn.Name()
}

// FuncDisplay renders fn for diagnostics: "Traverse" for functions,
// "(*Network).Traverse" for methods.
func FuncDisplay(fn *types.Func) string {
	if fn == nil {
		return "?"
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := types.Unalias(sig.Recv().Type())
		star := ""
		if ptr, ok := t.(*types.Pointer); ok {
			t = types.Unalias(ptr.Elem())
			star = "*"
		}
		if n, ok := t.(*types.Named); ok {
			return fmt.Sprintf("(%s%s).%s", star, n.Obj().Name(), fn.Name())
		}
	}
	return fn.Name()
}

// SigKey renders a method signature (receiver and parameter names
// excluded) with package-path-qualified type names, so signatures from
// different importer universes compare equal exactly when the compiler
// would consider them identical: an implementation may name its
// parameters differently from its interface.
func SigKey(sig *types.Signature) string {
	noRecv := types.NewSignatureType(nil, nil, nil, unnamed(sig.Params()), unnamed(sig.Results()), sig.Variadic())
	return types.TypeString(noRecv, func(p *types.Package) string { return p.Path() })
}

// unnamed copies a parameter or result tuple with the names dropped.
func unnamed(t *types.Tuple) *types.Tuple {
	vars := make([]*types.Var, t.Len())
	for i := range vars {
		vars[i] = types.NewParam(token.NoPos, nil, "", t.At(i).Type())
	}
	return types.NewTuple(vars...)
}

// Devirtualize resolves an interface-method call to every loaded
// implementation: the method named name on each concrete program type
// whose method set structurally satisfies all of iface's methods
// (matching by name and qualified signature, which is universe-safe).
// The ok result is false when iface is declared outside the program —
// its implementations cannot be enumerated, so the caller must treat the
// call as opaque.
func (p *Program) Devirtualize(iface *types.Named, name string) (impls []*FuncNode, ok bool) {
	if iface == nil || p.byPath[iface.Obj().Pkg().Path()] == nil {
		return nil, false
	}
	it, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return nil, false
	}
	for _, ct := range p.concrete {
		m, implements := implementation(ct.named, it, name)
		if !implements || m == nil {
			continue
		}
		if node := p.FuncOf(m); node != nil {
			impls = append(impls, node)
		}
	}
	return impls, true
}

// implementation reports whether *T's method set satisfies every method
// of it, and returns T's method matching the queried name. Matching is
// by name and qualified signature; unexported interface methods
// additionally require the same declaring package, mirroring the
// compiler's rule.
func implementation(named *types.Named, it *types.Interface, name string) (*types.Func, bool) {
	mset := types.NewMethodSet(types.NewPointer(named))
	var match *types.Func
	for i := 0; i < it.NumMethods(); i++ {
		im := it.Method(i)
		cm := methodNamed(mset, im)
		if cm == nil {
			return nil, false
		}
		if SigKey(cm.Type().(*types.Signature)) != SigKey(im.Type().(*types.Signature)) {
			return nil, false
		}
		if im.Name() == name {
			match = cm
		}
	}
	return match, true
}

// methodNamed finds im's counterpart in a concrete method set, crossing
// importer universes by matching package paths instead of objects.
func methodNamed(mset *types.MethodSet, im *types.Func) *types.Func {
	for i := 0; i < mset.Len(); i++ {
		obj, ok := mset.At(i).Obj().(*types.Func)
		if !ok || obj.Name() != im.Name() {
			continue
		}
		if !im.Exported() {
			if obj.Pkg() == nil || im.Pkg() == nil || obj.Pkg().Path() != im.Pkg().Path() {
				continue
			}
		}
		return obj
	}
	return nil
}

// InterfaceReceiver returns the named interface type a method call is
// dispatched through, or nil when call is not an interface-method call.
// Unnamed interface receivers report the sentinel anonInterface.
func InterfaceReceiver(info *types.Info, call *ast.CallExpr) (*types.Named, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil, false
	}
	recv := types.Unalias(selection.Recv())
	if !types.IsInterface(recv) {
		return nil, false
	}
	if n, ok := recv.(*types.Named); ok {
		return n, true
	}
	return nil, true // anonymous interface
}
