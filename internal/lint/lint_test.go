package lint

import (
	"flag"
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current analyzer output")

// LoadDir type-checks the single package in dir under the synthetic import
// path, resolving its imports against the module at root. It is the fixture
// loader used by the analyzer tests.
func LoadDir(root, dir, path string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := ModulePath(root)
	if err != nil {
		return nil, err
	}
	ld := newLoader(root, modPath)
	dir, err = filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	pkg, err := ld.load(path, dir)
	if err != nil {
		return nil, err
	}
	// Only the fixture package itself is analyzed; its module-internal
	// dependencies stay out of m.Pkgs so diagnostics never leak from them.
	return &Module{Root: root, Path: modPath, Fset: ld.fset, Pkgs: []*Package{pkg}}, nil
}

// moduleRoot locates the repository root from the package directory.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// runFixture loads one fixture package and returns the formatted diagnostics
// of the given analyzers, with file names reduced to their base name so
// goldens are machine-independent.
func runFixture(t *testing.T, analyzers []*Analyzer, fixture string) []string {
	t.Helper()
	root := moduleRoot(t)
	dir := filepath.Join("testdata", "src", fixture)
	path := "apclassifier/internal/lint/testdata/src/" + strings.ReplaceAll(fixture, string(filepath.Separator), "/")
	m, err := LoadDir(root, dir, path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	var out []string
	for _, d := range Run(m, analyzers) {
		out = append(out, fmt.Sprintf("%s:%d:%d: [%s] %s",
			filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Check, d.Message))
	}
	return out
}

// checkGolden compares got against the fixture's expect.golden file. An
// absent golden file means no diagnostics are expected.
func checkGolden(t *testing.T, fixture string, got []string) {
	t.Helper()
	golden := filepath.Join("testdata", "src", fixture, "expect.golden")
	if *update {
		if len(got) == 0 {
			if err := os.Remove(golden); err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
		} else if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var want []string
	if data, err := os.ReadFile(golden); err == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if line != "" {
				want = append(want, line)
			}
		}
	} else if !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("fixture %s: diagnostics mismatch\n got:\n  %s\nwant:\n  %s\n(re-run with -update to regenerate)",
			fixture, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// fixtureCases pairs each analyzer with its bad and clean fixture packages.
var fixtureCases = []struct {
	analyzer *Analyzer
	fixture  string
	wantAny  bool // bad fixtures must produce at least one finding
}{
	{AtomicField, "atomicfield/bad", true},
	{AtomicField, "atomicfield/clean", false},
	{RetainRelease, "retainrelease/bad", true},
	{RetainRelease, "retainrelease/clean", false},
	{LockSafe, "locksafe/bad", true},
	{LockSafe, "locksafe/clean", false},
	{LockGuard, "lockguard/bad", true},
	{LockGuard, "lockguard/clean", false},
	{DDMix, "ddmix/bad", true},
	{DDMix, "ddmix/clean", false},
	{ErrDrop, "errdrop/bad", true},
	{ErrDrop, "errdrop/clean", false},
	{EpochPin, "epochpin/bad", true},
	{EpochPin, "epochpin/clean", false},
	{FrozenWrite, "frozenwrite/bad", true},
	{FrozenWrite, "frozenwrite/clean", false},
	{PoolPair, "poolpair/bad", true},
	{PoolPair, "poolpair/clean", false},
	{VecBound, "vecbound/bad", true},
	{VecBound, "vecbound/clean", false},
	{Unreached, "unreached", true},
}

func TestAnalyzerFixtures(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.fixture, func(t *testing.T) {
			got := runFixture(t, []*Analyzer{tc.analyzer}, tc.fixture)
			if tc.wantAny && len(got) == 0 {
				t.Fatalf("bad fixture %s produced no findings", tc.fixture)
			}
			if !tc.wantAny && len(got) != 0 {
				t.Fatalf("clean fixture %s produced findings:\n  %s", tc.fixture, strings.Join(got, "\n  "))
			}
			checkGolden(t, tc.fixture, got)
		})
	}
}

// TestIgnoreDirective checks the suppression mechanism: trailing and
// line-above directives silence findings, malformed directives are
// themselves reported, and everything else survives.
func TestIgnoreDirective(t *testing.T) {
	got := runFixture(t, []*Analyzer{ErrDrop}, "ignore")
	checkGolden(t, "ignore", got)
	joined := strings.Join(got, "\n")
	if strings.Contains(joined, "/tmp/a") || strings.Contains(joined, "/tmp/b") {
		t.Errorf("suppressed findings leaked:\n%s", joined)
	}
	if !strings.Contains(joined, "[directive]") {
		t.Errorf("malformed directive not reported:\n%s", joined)
	}
	if !strings.Contains(joined, "ignore.go:24") {
		t.Errorf("unsuppressed finding missing:\n%s", joined)
	}
}

// TestStaleIgnore checks the directive hygiene pass: a used ignore stays
// silent, an ignore over clean code and an ignore naming a nonexistent
// check are reported, and a guard naming a missing mutex field is
// reported alongside the lockguard violation it no longer excuses.
func TestStaleIgnore(t *testing.T) {
	got := runFixture(t, All(), "staleignore")
	checkGolden(t, "staleignore", got)
	joined := strings.Join(got, "\n")
	if strings.Contains(joined, "/tmp/x") {
		t.Errorf("finding suppressed by a live directive leaked:\n%s", joined)
	}
	for _, want := range []string{"staleignore.go:19", "errdorp", "mux"} {
		if !strings.Contains(joined, want) {
			t.Errorf("stale-directive report missing %q:\n%s", want, joined)
		}
	}
}

// TestStaleIgnoreSubset checks that running a subset of analyzers never
// flags directives belonging to checks that did not run: with only
// lockguard selected, the two errdrop directives in the fixture (one
// stale under the full suite) are not judged.
func TestStaleIgnoreSubset(t *testing.T) {
	got := runFixture(t, []*Analyzer{LockGuard}, "staleignore")
	for _, line := range got {
		if strings.Contains(line, "lint:ignore errdrop") {
			t.Errorf("directive for an analyzer that did not run was judged: %s", line)
		}
	}
}

// TestMultilineDirective pins the suppression window against statements
// that span lines: directives cover their own line and the next, whether
// the call's finding position is under a leading or a trailing comment,
// and a finding two lines below a directive survives.
func TestMultilineDirective(t *testing.T) {
	got := runFixture(t, []*Analyzer{ErrDrop}, "multiline")
	checkGolden(t, "multiline", got)
	joined := strings.Join(got, "\n")
	if strings.Contains(joined, "Symlink") {
		t.Errorf("multi-line statement suppression failed:\n%s", joined)
	}
	if !strings.Contains(joined, "os.Remove") {
		t.Errorf("finding two lines below a directive should survive:\n%s", joined)
	}
}

// TestGuardValueReceiver checks lockguard on methods with value
// receivers: textual path matching and the *Locked convention behave
// exactly as they do for pointer receivers.
func TestGuardValueReceiver(t *testing.T) {
	got := runFixture(t, []*Analyzer{LockGuard}, "guardvalue")
	checkGolden(t, "guardvalue", got)
	if len(got) != 1 || !strings.Contains(got[0], "peek") {
		t.Errorf("want exactly the peek violation, got:\n  %s", strings.Join(got, "\n  "))
	}
}

// TestSamePositionSuppression checks the interaction when two analyzers
// report on one line: a directive naming one check leaves the other's
// finding standing, and "all" covers both.
func TestSamePositionSuppression(t *testing.T) {
	got := runFixture(t, []*Analyzer{RetainRelease, ErrDrop}, "dupe")
	checkGolden(t, "dupe", got)
	joined := strings.Join(got, "\n")
	if strings.Contains(joined, "errdrop") {
		t.Errorf("named-check suppression failed on a shared line:\n%s", joined)
	}
	if !strings.Contains(joined, "dupe.go:15") {
		t.Errorf("the co-located retainrelease finding must survive:\n%s", joined)
	}
	if strings.Contains(joined, "dupe.go:20") {
		t.Errorf("an \"all\" directive must cover both checks:\n%s", joined)
	}
}

// TestBuildTagExclusion checks that files constrained to custom build tags
// (like the apdebug sanitizer layer) are not loaded or analyzed.
func TestBuildTagExclusion(t *testing.T) {
	got := runFixture(t, All(), "tagged")
	if len(got) != 0 {
		t.Fatalf("tag-gated file was analyzed:\n  %s", strings.Join(got, "\n  "))
	}
}

// TestModuleIsClean is the gate that keeps the repository itself passing
// aplint: the full analyzer suite over the whole module must report
// nothing. This runs under plain `go test ./...`, so tier-1 CI enforces it
// without invoking the CLI.
func TestModuleIsClean(t *testing.T) {
	m, err := LoadModule(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Pkgs) < 10 {
		t.Fatalf("loader found only %d packages; module walk is broken", len(m.Pkgs))
	}
	diags := Run(m, All())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	// Stage 1 has one serving path; the environment variable that once
	// selected between classify engines is gone. Keep any such switch
	// from coming back unnoticed: non-test code (all the loader reads) must
	// not consult an APC_* environment variable.
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Getenv" && sel.Sel.Name != "LookupEnv") {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "os" {
					return true
				}
				if lit, ok := call.Args[0].(*ast.BasicLit); ok && strings.HasPrefix(lit.Value, `"APC_`) {
					t.Errorf("%s: reads %s: classifier behaviour must not switch on the environment",
						m.Fset.Position(call.Pos()), lit.Value)
				}
				return true
			})
		}
	}
}

// TestLiveReadTablesResolve keeps epochpin's method tables from drifting:
// every name must be a method of *aptree.Manager or the facade's
// *Classifier, or the check silently stops guarding it.
func TestLiveReadTablesResolve(t *testing.T) {
	root := moduleRoot(t)
	modPath, err := ModulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadDir(root, root, modPath)
	if err != nil {
		t.Fatal(err)
	}
	facade := m.Pkgs[0].Types
	var manager types.Object
	for _, imp := range facade.Imports() {
		if imp.Path() == modPath+"/internal/aptree" {
			manager = imp.Scope().Lookup("Manager")
		}
	}
	classifier := facade.Scope().Lookup("Classifier")
	if manager == nil || classifier == nil {
		t.Fatal("cannot find aptree.Manager or the facade Classifier")
	}
	for _, tc := range []struct {
		obj   types.Object
		table map[string]bool
	}{{manager, managerLiveReads}, {classifier, classifierLiveReads}} {
		methods := types.NewMethodSet(types.NewPointer(tc.obj.Type()))
		for name := range tc.table {
			if methods.Lookup(tc.obj.Pkg(), name) == nil {
				t.Errorf("epochpin lists %s.%s, which is not a method", tc.obj.Name(), name)
			}
		}
	}
}

// TestByName covers analyzer selection.
func TestByName(t *testing.T) {
	all, err := ByName("all")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(all) = %d analyzers, err %v", len(all), err)
	}
	two, err := ByName("errdrop, locksafe")
	if err != nil || len(two) != 2 {
		t.Fatalf("ByName pair = %v, err %v", two, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) should fail")
	}
}
