package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FrozenWrite enforces the publish-then-freeze contract of the query
// path: once an aptree.Snapshot, a frozen bdd.View, or a cached
// network.Behavior is published, every field reachable from it is
// immutable. Outside each type's home package (its constructor/publish
// package), the analyzer reports
//
//   - field writes through a value that may alias a frozen one —
//     directly (s.version = 2), through a derived pointer-shaped
//     projection (s.Tree().Root, b.Edges[0].Box), or through any local
//     the value-flow engine proved aliases it;
//   - calls to mutating-sounding methods (Set*, Add*, Reset, ...) on
//     such values.
//
// Behavior.Clone is the sanctioned escape hatch: a Clone result — like a
// composite literal, new/make, or nil — is fresh, and writes to it (and
// to anything assigned from it) are fine. Taint flows only through
// pointer-shaped projections: copying an element out of a frozen slice
// produces an independent value whose mutation cannot reach the
// snapshot, so the copy is writable.
var FrozenWrite = &Analyzer{
	Name: "frozenwrite",
	Doc:  "no field writes or mutating calls on snapshots, frozen views, or cached behaviors outside their home package",
	Run:  runFrozenWrite,
}

// frozenRoots maps each frozen type to its home package, the only
// package allowed to construct and mutate it.
var frozenRoots = []struct{ pkg, name string }{
	{"aptree", "Snapshot"},
	{"bdd", "View"},
	{"network", "Behavior"},
}

// frozenRootType classifies t (after stripping one pointer) as a frozen
// root, returning its home package as the taint tag.
func frozenRootType(t types.Type) (string, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	for _, r := range frozenRoots {
		if namedDeclaredIn(named, r.pkg, r.name) {
			return r.pkg, true
		}
	}
	return "", false
}

// mutatorPrefixes flag method names that conventionally mutate their
// receiver. Read accessors (Tree, View, Classify, Deterministic, ...)
// never match.
var mutatorPrefixes = []string{
	"Set", "Add", "Remove", "Delete", "Insert", "Append",
	"Push", "Pop", "Clear", "Reset", "Merge", "Apply", "Swap", "Replace",
}

func mutatorName(name string) bool {
	for _, p := range mutatorPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func runFrozenWrite(m *Module, report Reporter) {
	for _, pkg := range m.Pkgs {
		// The home package constructs and publishes its own type freely.
		home := make(map[string]bool)
		for _, r := range frozenRoots {
			if pkgPathIs(pkg.Path, r.pkg) {
				home[r.pkg] = true
			}
		}
		funcBodies(pkg, func(fd *ast.FuncDecl) {
			checkFrozenWrite(m, pkg, fd, home, report)
		})
	}
}

func checkFrozenWrite(m *Module, pkg *Package, fd *ast.FuncDecl, home map[string]bool, report Reporter) {
	info := pkg.Info
	cfg := flowConfig{
		sourceType: func(t types.Type) (string, bool) {
			tag, ok := frozenRootType(t)
			if !ok || home[tag] {
				return "", false
			}
			return tag, true
		},
		fresh:  freshValue(info),
		derive: true,
		seed: func(v *types.Var) (string, bool) {
			tag, ok := frozenRootType(v.Type())
			if !ok || home[tag] {
				return "", false
			}
			return tag, true
		},
	}
	fl := flowVars(info, fd, cfg)

	reportWrite := func(lhs ast.Expr) {
		base, isWrite := peelWriteBase(lhs)
		if !isWrite {
			return
		}
		if fact, ok := fl.tainted(base); ok {
			report(lhs.Pos(), "write through frozen %s value (aliased at %s); published snapshots are immutable — Clone before mutating",
				fact.tag, shortPos(m, fact.pos))
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				reportWrite(lhs)
			}
		case *ast.IncDecStmt:
			reportWrite(n.X)
		case *ast.CallExpr:
			fn, _, recvExpr, ok := methodCallOn(info, n)
			if !ok || !mutatorName(fn.Name()) {
				return true
			}
			if fact, isTainted := fl.tainted(recvExpr); isTainted {
				report(n.Pos(), "%s mutates a frozen %s value (aliased at %s); published snapshots are immutable — Clone before mutating",
					fn.Name(), fact.tag, shortPos(m, fact.pos))
			}
		}
		return true
	})
}

// freshValue returns the freshness classifier shared by taint analyses:
// composite literals (and their address), the new/make builtins, nil,
// and Clone results are provably newly constructed.
func freshValue(info *types.Info) func(ast.Expr) bool {
	return func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.CompositeLit:
			return true
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return false
			}
			_, ok := ast.Unparen(x.X).(*ast.CompositeLit)
			return ok
		case *ast.Ident:
			_, isNil := info.Uses[x].(*types.Nil)
			return isNil
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin &&
					(id.Name == "new" || id.Name == "make") {
					return true
				}
			}
			if fn := calleeFunc(info, x); fn != nil && fn.Name() == "Clone" {
				return true
			}
		}
		return false
	}
}

// peelWriteBase strips the selector/index/dereference chain from an
// assignment target, returning the base expression the write reaches
// through. A bare identifier is a rebinding, not a mutation, so ok is
// false for it.
func peelWriteBase(lhs ast.Expr) (ast.Expr, bool) {
	peeled := false
	for {
		switch x := lhs.(type) {
		case *ast.ParenExpr:
			lhs = x.X
		case *ast.SelectorExpr:
			lhs, peeled = x.X, true
		case *ast.IndexExpr:
			lhs, peeled = x.X, true
		case *ast.StarExpr:
			lhs, peeled = x.X, true
		default:
			return lhs, peeled
		}
	}
}
