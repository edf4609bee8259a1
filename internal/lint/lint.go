// Package lint is a self-contained static-analysis framework for this
// module, built only on the standard library (go/parser, go/ast, go/types,
// go/importer). It exists because the repository's correctness rests on
// data-structure disciplines the compiler cannot see: BDD Refs are only
// meaningful with the DD that produced them, Retain/Release must balance,
// atomically updated fields must never be touched plainly, and mutexes must
// not be copied or left locked on an early return.
//
// The framework loads every package of the module from source, type-checks
// it, and runs a set of Analyzers over the typed syntax trees. Diagnostics
// carry exact positions and can be suppressed at the offending line with a
// directive comment:
//
//	//lint:ignore <check> <reason>
//
// The directive suppresses diagnostics of the named check (or "all") on the
// same line as the comment and on the line immediately below it, so both
// trailing comments and comments placed above a statement work. A reason is
// mandatory; a directive without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos     token.Position
	Check   string // analyzer name
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Check, d.Message)
}

// Analyzer is a single named check run over a whole module at once, so it
// can gather facts across packages (e.g. which fields are ever accessed
// atomically) before judging individual uses.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(m *Module, report Reporter)
}

// Reporter records a finding at a position.
type Reporter func(pos token.Pos, format string, args ...interface{})

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AtomicField,
		RetainRelease,
		LockSafe,
		LockGuard,
		DDMix,
		ErrDrop,
		EpochPin,
		FrozenWrite,
		PoolPair,
		VecBound,
		Unreached,
	}
}

// ByName resolves a comma-separated list of analyzer names ("" or "all"
// selects the whole suite).
func ByName(list string) ([]*Analyzer, error) {
	if list == "" || list == "all" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown check %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run executes the analyzers over the module and returns surviving
// diagnostics sorted by position. Suppressed findings are dropped;
// malformed ignore directives are reported as check "directive", and
// directives that suppressed nothing any judging analyzer could have
// produced are reported as check "staleignore" (these two passes run as
// part of every invocation rather than as named analyzers, and their
// findings are not themselves suppressible).
func Run(m *Module, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		name := a.Name
		a.Run(m, func(pos token.Pos, format string, args ...interface{}) {
			diags = append(diags, Diagnostic{
				Pos:     m.Fset.Position(pos),
				Check:   name,
				Message: fmt.Sprintf(format, args...),
			})
		})
	}
	dirs, bad := collectIgnores(m)
	diags = append(diags, bad...)
	out := diags[:0]
	for _, d := range diags {
		if dirs.suppress(d) {
			continue
		}
		out = append(out, d)
	}
	out = append(out, staleDirectives(m, analyzers, dirs)...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Check < out[j].Check
	})
	return out
}

// shortPos renders a cross-referenced position as base.go:line:col so
// messages (and the goldens that pin them) never embed machine-specific
// checkout paths. The primary diagnostic position keeps its full path;
// only in-message references use this.
func shortPos(m *Module, pos token.Pos) string {
	p := m.Fset.Position(pos)
	return fmt.Sprintf("%s:%d:%d", filepath.Base(p.Filename), p.Line, p.Column)
}

// ignoreKey identifies one suppressed (file, line).
type ignoreKey struct {
	file string
	line int
}

// ignoreDirective is one parsed //lint:ignore comment. used records
// whether it suppressed at least one raw diagnostic this run, which is
// what the staleignore pass judges.
type ignoreDirective struct {
	pos   token.Position
	check string
	used  bool
}

// directiveSet indexes directives by the lines they cover (their own and
// the next) and keeps the full list for staleness judging.
type directiveSet struct {
	byLine map[ignoreKey][]*ignoreDirective
	list   []*ignoreDirective
}

// suppress reports whether d is covered by a directive, marking every
// matching directive as used.
func (s *directiveSet) suppress(d Diagnostic) bool {
	hit := false
	for _, dir := range s.byLine[ignoreKey{d.Pos.Filename, d.Pos.Line}] {
		if dir.check == "all" || dir.check == d.Check {
			dir.used = true
			hit = true
		}
	}
	return hit
}

const ignorePrefix = "lint:ignore"

// collectIgnores scans every file's comments for lint:ignore directives.
// Each directive covers its own line and the next line. Directives missing
// a check name or a reason are returned as diagnostics.
func collectIgnores(m *Module) (*directiveSet, []Diagnostic) {
	dirs := &directiveSet{byLine: make(map[ignoreKey][]*ignoreDirective)}
	var bad []Diagnostic
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimPrefix(text, "/*")
					text = strings.TrimSuffix(text, "*/")
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, ignorePrefix) {
						continue
					}
					rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
					fields := strings.Fields(rest)
					pos := m.Fset.Position(c.Pos())
					if len(fields) < 2 {
						bad = append(bad, Diagnostic{
							Pos:     pos,
							Check:   "directive",
							Message: "malformed directive: want //lint:ignore <check> <reason>",
						})
						continue
					}
					dir := &ignoreDirective{pos: pos, check: fields[0]}
					dirs.list = append(dirs.list, dir)
					for _, line := range []int{pos.Line, pos.Line + 1} {
						k := ignoreKey{pos.Filename, line}
						dirs.byLine[k] = append(dirs.byLine[k], dir)
					}
				}
			}
		}
	}
	return dirs, bad
}

// pathString renders a chain of identifiers and field selections such as
// "m.mu" for matching lock receivers textually. Non-path expressions
// (calls, indexing) yield "" so they never match each other.
func pathString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.ParenExpr:
		return pathString(e.X)
	case *ast.SelectorExpr:
		x := pathString(e.X)
		if x == "" {
			return ""
		}
		return x + "." + e.Sel.Name
	}
	return ""
}
