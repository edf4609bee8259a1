package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked package of the module.
type Package struct {
	Path  string // import path
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Module is a fully loaded and type-checked set of packages sharing one
// FileSet. Analyzers run over a Module so cross-package facts are visible.
type Module struct {
	Root string // directory containing go.mod
	Path string // module path from go.mod
	Fset *token.FileSet
	Pkgs []*Package
}

// loader type-checks module packages from source, resolving module-internal
// imports recursively and everything else through the compiler's export
// data (stdlib only — the module has no external dependencies).
type loader struct {
	root    string
	modPath string
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package // by import path; nil entry = in progress
	order   []*Package
}

func newLoader(root, modPath string) *loader {
	return &loader{
		root:    root,
		modPath: modPath,
		fset:    token.NewFileSet(),
		std:     importer.Default(),
		pkgs:    make(map[string]*Package),
	}
}

// ModulePath reads the module path from root/go.mod.
func ModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s/go.mod", root)
}

// FindModuleRoot walks up from dir to the nearest directory holding go.mod.
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
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// LoadModule parses and type-checks every package under root (skipping
// testdata, vendor, hidden and underscore directories). Test files are not
// loaded: the analyzers target production code, and the errdrop check is
// specified to exclude tests.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := ModulePath(root)
	if err != nil {
		return nil, err
	}
	ld := newLoader(root, modPath)
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		if _, err := ld.load(path, dir); err != nil {
			return nil, err
		}
	}
	return &Module{Root: root, Path: modPath, Fset: ld.fset, Pkgs: ld.order}, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".") {
			return true
		}
	}
	return false
}

// load parses and type-checks one directory as the package at path.
func (ld *loader) load(path, dir string) (*Package, error) {
	if pkg, ok := ld.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg, nil
	}
	ld.pkgs[path] = nil // mark in progress

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		full := filepath.Join(dir, name)
		if !buildIncluded(full) {
			continue
		}
		f, err := parser.ParseFile(ld.fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: (*moduleImporter)(ld),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, ld.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", path, typeErrs[0])
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	ld.pkgs[path] = pkg
	ld.order = append(ld.order, pkg)
	return pkg, nil
}

// buildIncluded reports whether a file's //go:build constraint (if any)
// holds under the default build configuration: GOOS, GOARCH, the gc tool
// chain, and release tags — and no custom tags. Files gated behind custom
// tags such as apdebug are excluded, mirroring what `go build ./...`
// compiles. (GOOS/GOARCH filename suffixes are not interpreted; this
// module has no platform-specific files.)
func buildIncluded(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "package ") {
			break // constraints must precede the package clause
		}
		if !constraint.IsGoBuild(line) {
			continue
		}
		expr, err := constraint.Parse(line)
		if err != nil {
			return true // malformed constraint: let the type checker complain
		}
		return expr.Eval(func(tag string) bool {
			return tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc" ||
				tag == "unix" || strings.HasPrefix(tag, "go1")
		})
	}
	return true
}

// moduleImporter resolves module-internal import paths from source and
// delegates the rest (standard library) to the default export-data
// importer.
type moduleImporter loader

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	ld := (*loader)(mi)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == ld.modPath || strings.HasPrefix(path, ld.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, ld.modPath), "/")
		pkg, err := ld.load(path, filepath.Join(ld.root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return ld.std.Import(path)
}
