package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked analysis target.
type Package struct {
	// Path is the import path; Dir the source directory; ModRoot the
	// enclosing module root the package was loaded relative to.
	Path    string
	Dir     string
	ModRoot string

	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	Directives *Directives
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Load type-checks the packages matching patterns (relative to modRoot)
// and returns them ready for analysis. It resolves every import from the
// compiler's export data via `go list -export`, so it needs no network
// and no third-party loader; only non-test files are analyzed, matching
// the paper-invariant scope (hot paths live in library code).
func Load(modRoot string, patterns []string) ([]*Package, error) {
	pkgs, exports, err := goList(modRoot, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports)
	var out []*Package
	for _, lp := range pkgs {
		if lp.DepOnly || lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		p, err := typecheck(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		p.ModRoot = modRoot
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// LoadModule type-checks every package of the module rooted at modRoot
// and of each module nested under it (a directory with its own go.mod,
// like a benchmark module that replaces its parent), so a check that
// needs every non-test reference sees them whatever patterns the run
// was given. testdata, vendor, and dot or underscore directories are
// skipped, as `./...` skips them.
func LoadModule(modRoot string) ([]*Package, error) {
	roots := []string{modRoot}
	err := filepath.WalkDir(modRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == modRoot {
			return err
		}
		if name := d.Name(); name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			roots = append(roots, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, root := range roots {
		pkgs, err := Load(root, []string{"./..."})
		if err != nil {
			return nil, err
		}
		out = append(out, pkgs...)
	}
	return out, nil
}

// LoadDir type-checks the single package rooted at dir (used by the
// analyzer golden tests over testdata trees, which `go list` does not
// see). Imports are resolved from export data listed via modRoot.
func LoadDir(modRoot, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			files = append(files, name)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	sort.Strings(files)
	fset := token.NewFileSet()
	var parsed []*ast.File
	importSet := map[string]bool{}
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
		for _, im := range f.Imports {
			importSet[strings.Trim(im.Path.Value, `"`)] = true
		}
	}
	var imports []string
	for path := range importSet {
		if path != "unsafe" {
			imports = append(imports, path)
		}
	}
	sort.Strings(imports)
	exports := map[string]string{}
	if len(imports) > 0 {
		_, exports, err = goList(modRoot, imports)
		if err != nil {
			return nil, err
		}
	}
	lp := listPkg{ImportPath: parsed[0].Name.Name, Dir: dir, GoFiles: files}
	p, err := typecheckParsed(fset, newExportImporter(fset, exports), lp, parsed)
	if err != nil {
		return nil, err
	}
	p.ModRoot = modRoot
	return p, nil
}

// goList runs `go list -export -deps -json` over the patterns and returns
// the listed packages plus the import-path -> export-data-file map.
func goList(modRoot string, patterns []string) ([]listPkg, map[string]string, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = modRoot
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	dec := json.NewDecoder(out)
	var pkgs []listPkg
	exports := map[string]string{}
	for {
		var lp listPkg
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("analysis: go list: %w", err)
		}
		if lp.Error != nil {
			return nil, nil, fmt.Errorf("analysis: go list %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		pkgs = append(pkgs, lp)
	}
	if err := cmd.Wait(); err != nil {
		return nil, nil, fmt.Errorf("analysis: go list: %w\n%s", err, stderr.String())
	}
	return pkgs, exports, nil
}

// newExportImporter returns a types.Importer that reads compiler export
// data from the files `go list -export` produced.
func newExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// typecheck parses lp's files and type-checks them.
func typecheck(fset *token.FileSet, imp types.Importer, lp listPkg) (*Package, error) {
	var parsed []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	return typecheckParsed(fset, imp, lp, parsed)
}

func typecheckParsed(fset *token.FileSet, imp types.Importer, lp listPkg, parsed []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(lp.ImportPath, fset, parsed, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %w", lp.ImportPath, err)
	}
	return &Package{
		Path:       lp.ImportPath,
		Dir:        lp.Dir,
		Fset:       fset,
		Files:      parsed,
		Types:      tpkg,
		Info:       info,
		Directives: ParseDirectives(fset, parsed),
	}, nil
}

// FindModuleRoot walks up from dir to the enclosing go.mod directory.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}
