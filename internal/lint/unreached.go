package lint

import (
	"go/ast"
	"go/types"
)

// Unreached reports functions and methods that no non-test code reaches.
// The module loader never reads _test.go files or files gated behind
// custom build tags such as apdebug, so a function whose only callers are
// tests or the apdebug sanitizer layer is reported: delete it, move it
// into the one package's _test.go that uses it, or keep it as an oracle
// with //lint:ignore unreached <the tests or tag that need it>.
//
// A function counts as reached when any of these holds:
//   - it is main (in a main package) or init;
//   - code outside its own body names it, to call it or to take it as a
//     value (a package-level table entry, a method value, an
//     instantiation of a generic function);
//   - it is a method whose name and signature match a method of some
//     interface the module can see — its own, the standard library's
//     packages it imports, or an interface literal — since calls through
//     an interface never name the concrete method.
//
// Reaching is by reference, not a walk from the roots: a function called
// only from another unreached function is not reported until that caller
// is deleted, and a kept oracle's helpers need no directive of their own.
// A cycle of dead functions calling only each other is never reported.
var Unreached = &Analyzer{
	Name: "unreached",
	Doc:  "functions and methods must have a non-test caller",
	Run:  runUnreached,
}

func runUnreached(m *Module, report Reporter) {
	ifaces := interfaceMethods(m)
	used := make(map[*types.Func]bool)
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = pkg.Info.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							used[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "_" {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok || used[fn] || isEntryPoint(pkg, fd) || satisfiesInterface(fn, ifaces) {
					continue
				}
				report(fd.Name.Pos(), "%s has no non-test caller: delete it, move it into the _test.go that uses it, or keep it with //lint:ignore unreached <tests that need it>",
					funcName(fn))
			}
		}
	}
}

// isEntryPoint reports whether fd is a function the runtime calls.
func isEntryPoint(pkg *Package, fd *ast.FuncDecl) bool {
	if fd.Recv != nil {
		return false
	}
	return fd.Name.Name == "init" || (fd.Name.Name == "main" && pkg.Types.Name() == "main")
}

// interfaceMethods indexes by name the signatures of every interface
// method visible to the module: the error type, every interface type
// declared in a module package or in a package it imports (transitively),
// and every interface type expression in module code.
func interfaceMethods(m *Module) map[string][]types.Type {
	out := make(map[string][]types.Type)
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			meth := it.Method(i)
			out[meth.Name()] = append(out[meth.Name()], meth.Type())
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range m.Pkgs {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return out
}

// satisfiesInterface reports whether fn is a method with the name and
// signature of some visible interface method.
func satisfiesInterface(fn *types.Func, ifaces map[string][]types.Type) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	for _, t := range ifaces[fn.Name()] {
		if types.Identical(sig, t) {
			return true
		}
	}
	return false
}

// funcName renders fn as Name or Recv.Name, without package paths.
func funcName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}
