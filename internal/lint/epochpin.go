package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// EpochPin is the static twin of the apdebug debugCheckCacheEpoch
// assertion: a function that pins an epoch — loading a snapshot through
// aptree.Manager.Snapshot, Classifier.Snapshot, or a Load on an
// atomic.Pointer holding a snapshot — must answer the rest of its query
// from that pinned value. Three mixings are reported, each a way to
// straddle two reconstruction epochs inside one logical walk:
//
//  1. pinning a second snapshot in the same function: the two loads may
//     observe different epochs across a concurrent swap;
//  2. calling a live-answering Manager/Classifier method (Classify,
//     Version, NumLive, Tree, ...) after the pin: the live method
//     re-loads the published pointer and may see a newer epoch than the
//     walk in progress;
//  3. a function literal that captures a pinned snapshot variable from
//     its enclosing function and then pins or reads live state itself —
//     the goroutine/callback variant of the same bug.
//
// Each function literal is its own scope: a metrics closure that pins,
// reads, and returns is independent of its siblings (RegisterMetrics
// registers many such closures, each correctly pinning per scrape).
// The value-flow engine tracks which locals alias a pinned snapshot, so
// rule 3 sees captures through assignments and renames, not just the
// original variable.
var EpochPin = &Analyzer{
	Name: "epochpin",
	Doc:  "a function that pins a snapshot must not pin a second epoch or read live classifier state mid-walk",
	Run:  runEpochPin,
}

// managerLiveReads are aptree.Manager methods that answer from the live
// published epoch (each performs its own atomic load internally).
var managerLiveReads = map[string]bool{
	"Classify": true, "Version": true, "NumLive": true,
	"Tree": true, "DD": true, "Ref": true, "LiveIDs": true,
	"UpdatesSinceSwap": true, "TotalClassifications": true,
}

// classifierLiveReads are facade Classifier methods that pin internally
// and answer from whatever epoch is published at call time. Both tables
// name real methods only; TestLiveReadTablesResolve checks them against
// the method sets.
var classifierLiveReads = map[string]bool{
	"Classify": true, "Behavior": true, "BehaviorWith": true,
	"NumPredicates": true, "NumAtoms": true, "AverageDepth": true,
	"MemBytes": true, "DeltaSeq": true,
}

func runEpochPin(m *Module, report Reporter) {
	for _, pkg := range m.Pkgs {
		funcBodies(pkg, func(fd *ast.FuncDecl) {
			checkEpochPin(m, pkg, fd, report)
		})
	}
}

// pinCall reports whether call loads (pins) a snapshot, with a short
// description for diagnostics.
func pinCall(m *Module, info *types.Info, call *ast.CallExpr) (string, bool) {
	fn, recv, _, ok := methodCallOn(info, call)
	if !ok {
		return "", false
	}
	switch {
	case fn.Name() == "Snapshot" && namedDeclaredIn(recv, "aptree", "Manager"):
		return "Manager.Snapshot", true
	case fn.Name() == "Snapshot" && rootNamed(m, recv, "Classifier"):
		return "Classifier.Snapshot", true
	case fn.Name() == "Load" && atomicSnapshotPointer(m, recv):
		return "atomic snapshot Load", true
	}
	return "", false
}

// rootNamed reports whether named is the given type declared in the
// module's root package (the facade).
func rootNamed(m *Module, named *types.Named, name string) bool {
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == m.Path
}

// atomicSnapshotPointer reports whether named is atomic.Pointer[T] with T
// a snapshot type (aptree.Snapshot or the root facade Snapshot). Loads on
// other atomic pointers (behavior cache slots, trace sinks) do not pin an
// epoch.
func atomicSnapshotPointer(m *Module, named *types.Named) bool {
	obj := named.Obj()
	if obj.Name() != "Pointer" || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return false
	}
	args := named.TypeArgs()
	if args == nil || args.Len() != 1 {
		return false
	}
	elem := args.At(0)
	if ptr, ok := elem.(*types.Pointer); ok {
		elem = ptr.Elem()
	}
	en, ok := elem.(*types.Named)
	if !ok {
		return false
	}
	return namedDeclaredIn(en, "aptree", "Snapshot") || rootNamed(m, en, "Snapshot")
}

// liveReadCall reports whether call answers from live classifier state.
func liveReadCall(m *Module, info *types.Info, call *ast.CallExpr) (string, bool) {
	fn, recv, _, ok := methodCallOn(info, call)
	if !ok {
		return "", false
	}
	switch {
	case namedDeclaredIn(recv, "aptree", "Manager") && managerLiveReads[fn.Name()]:
		return "Manager." + fn.Name(), true
	case rootNamed(m, recv, "Classifier") && classifierLiveReads[fn.Name()]:
		return "Classifier." + fn.Name(), true
	}
	return "", false
}

// pinSite is one snapshot load or live read attributed to a scope.
type pinSite struct {
	pos  token.Pos
	desc string
}

// pinScope is the per-function-literal (or declaration-body) unit of
// epoch accounting.
type pinScope struct {
	lit     *ast.FuncLit // nil for the declaration body itself
	pins    []pinSite
	reads   []pinSite
	capture *pinSite // first use of a pinned variable captured from outside the literal
}

func checkEpochPin(m *Module, pkg *Package, fd *ast.FuncDecl, report Reporter) {
	info := pkg.Info

	// Which locals alias a pinned snapshot (for the capture rule).
	fl := flowVars(info, fd, flowConfig{
		source: func(e ast.Expr) (string, bool) {
			if call, ok := e.(*ast.CallExpr); ok {
				return pinCall(m, info, call)
			}
			return "", false
		},
	})

	root := &pinScope{}
	scopes := []*pinScope{root}
	stack := []*pinScope{root}
	var nodes []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			last := nodes[len(nodes)-1]
			nodes = nodes[:len(nodes)-1]
			if _, ok := last.(*ast.FuncLit); ok {
				stack = stack[:len(stack)-1]
			}
			return true
		}
		nodes = append(nodes, n)
		cur := stack[len(stack)-1]
		switch x := n.(type) {
		case *ast.FuncLit:
			sc := &pinScope{lit: x}
			scopes = append(scopes, sc)
			stack = append(stack, sc)
		case *ast.CallExpr:
			if desc, ok := pinCall(m, info, x); ok {
				cur.pins = append(cur.pins, pinSite{x.Pos(), desc})
			} else if desc, ok := liveReadCall(m, info, x); ok {
				cur.reads = append(cur.reads, pinSite{x.Pos(), desc})
			}
		case *ast.Ident:
			if cur.lit == nil || cur.capture != nil {
				break
			}
			if v := localVar(info, x, fl.inFunc); v != nil {
				if _, pinned := fl.vars[v]; pinned &&
					(v.Pos() < cur.lit.Pos() || v.Pos() > cur.lit.End()) {
					cur.capture = &pinSite{x.Pos(), v.Name()}
				}
			}
		}
		return true
	})

	for _, sc := range scopes {
		if len(sc.pins) > 0 {
			first := sc.pins[0]
			for _, p := range sc.pins[1:] {
				report(p.pos, "%s pins a second epoch in one function (first pinned via %s at %s); a query must stay on a single snapshot",
					p.desc, first.desc, shortPos(m, first.pos))
			}
			for _, r := range sc.reads {
				if r.pos > first.pos {
					report(r.pos, "%s answers from the live epoch after this function pinned a snapshot via %s at %s; use the pinned snapshot instead",
						r.desc, first.desc, shortPos(m, first.pos))
				}
			}
		}
		if sc.lit != nil && sc.capture != nil && (len(sc.pins) > 0 || len(sc.reads) > 0) {
			report(sc.capture.pos, "function literal captures pinned snapshot %q but pins or reads live classifier state itself; a closure must stay on its captured epoch",
				sc.capture.desc)
		}
	}
}
