package experiments

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

// testEnv builds a small-scale environment shared by the tests in this
// package (experiments are deterministic given the scale and seeds).
var sharedEnv *Env

func env(t *testing.T) *Env {
	t.Helper()
	if sharedEnv == nil {
		e, err := NewEnv(ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		sharedEnv = e
	}
	return sharedEnv
}

const fastDur = 20 * time.Millisecond

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "x", Header: []string{"a", "bb"}, Notes: []string{"n"}}
	tab.AddRow("1", "2")
	s := tab.String()
	for _, want := range []string{"== x ==", "a", "bb", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestDefaultScale(t *testing.T) {
	t.Setenv("APBENCH_SCALE", "")
	if DefaultScale().Name != "mid" {
		t.Fatal("default must be mid")
	}
	t.Setenv("APBENCH_SCALE", "full")
	if DefaultScale().Name != "full" {
		t.Fatal("full not honored")
	}
	t.Setenv("APBENCH_SCALE", "small")
	if DefaultScale().Name != "small" {
		t.Fatal("small not honored")
	}
}

func TestTableI(t *testing.T) {
	tab := env(t).TableI()
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][0] != "internet2" || tab.Rows[1][0] != "stanford" {
		t.Fatalf("unexpected networks: %v", tab.Rows)
	}
}

func TestFig4ShapeThroughputFallsWithDepth(t *testing.T) {
	tabs := env(t).Fig4(6, 64, fastDur)
	if len(tabs) != 2 {
		t.Fatalf("tables = %d", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) != 7 { // 6 random + star
			t.Fatalf("rows = %d", len(tab.Rows))
		}
		if tab.Rows[len(tab.Rows)-1][0] != "OAPT (star)" {
			t.Fatal("missing star row")
		}
	}
}

func TestFig9OrderingHolds(t *testing.T) {
	tab := env(t).Fig9(8)
	for _, row := range tab.Rows {
		var best, quick, oapt float64
		mustParse(t, row[1], &best)
		mustParse(t, row[2], &quick)
		mustParse(t, row[3], &oapt)
		// The paper's headline: OAPT ≤ Quick ≤ Best-from-Random.
		if oapt > quick+0.05 {
			t.Errorf("%s: OAPT depth %.1f worse than Quick %.1f", row[0], oapt, quick)
		}
		if oapt > best+0.05 {
			t.Errorf("%s: OAPT depth %.1f worse than best random %.1f", row[0], oapt, best)
		}
	}
}

func TestFig10CDFsMonotone(t *testing.T) {
	tabs := env(t).Fig10(5)
	for _, tab := range tabs {
		prev := []float64{0, 0, 0}
		for _, row := range tab.Rows {
			for c := 1; c <= 3; c++ {
				var v float64
				mustParse(t, row[c], &v)
				if v+1e-9 < prev[c-1] {
					t.Fatalf("%s: CDF column %d not monotone", tab.Title, c)
				}
				prev[c-1] = v
			}
		}
		last := tab.Rows[len(tab.Rows)-1]
		for c := 1; c <= 3; c++ {
			var v float64
			mustParse(t, last[c], &v)
			if v < 99.9 {
				t.Fatalf("%s: CDF column %d does not reach 100%%", tab.Title, c)
			}
		}
	}
}

func TestMemoryUsage(t *testing.T) {
	tab := env(t).MemoryUsage()
	for _, row := range tab.Rows {
		var mb float64
		mustParse(t, row[2], &mb)
		if mb <= 0 || mb > 1024 {
			t.Fatalf("%s: memory estimate %v MB implausible", row[0], mb)
		}
	}
}

func TestFig11ConstructionTimes(t *testing.T) {
	tab := env(t).Fig11(3)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		for c := 1; c <= 3; c++ {
			if row[c] == "" || row[c] == "0s" {
				t.Fatalf("suspicious construction time %q", row[c])
			}
		}
	}
}

// TestFig12OrderingHolds asserts Fig 12's throughput orderings. One short
// window per method can lose to a scheduling hiccup on a loaded host, so
// every method is timed in fig12Windows runs of the whole figure — its
// windows interleaved with the other methods' — and compared by its best
// window.
func TestFig12OrderingHolds(t *testing.T) {
	const fig12Windows = 3
	rates := map[string]map[string]float64{}
	for w := 0; w < fig12Windows; w++ {
		for _, row := range env(t).Fig12(4, 64, fastDur).Rows {
			if rates[row[0]] == nil {
				rates[row[0]] = map[string]float64{}
			}
			var v float64
			mustParse(t, row[2], &v)
			rates[row[0]][row[1]] = max(rates[row[0]][row[1]], v)
		}
	}
	for net, r := range rates {
		if r["AP Classifier (OAPT)"] <= r["HSA (Hassel)"] {
			t.Errorf("%s: OAPT (%.2f) must beat HSA (%.2f)", net, r["AP Classifier (OAPT)"], r["HSA (Hassel)"])
		}
		if r["AP Classifier (OAPT)"] <= r["Forwarding Simulation"] {
			t.Errorf("%s: OAPT must beat Forwarding Simulation", net)
		}
		if r["AP Classifier (OAPT)"] <= r["PScan"] {
			t.Errorf("%s: OAPT must beat PScan", net)
		}
	}
}

func TestFig13LatenciesSane(t *testing.T) {
	tabs := env(t).Fig13(20)
	for _, tab := range tabs {
		if len(tab.Rows) == 0 {
			t.Fatal("no percentile rows")
		}
		// Percentile columns must be non-decreasing down the table.
		prev := []float64{0, 0, 0}
		for _, row := range tab.Rows {
			for c := 1; c <= 3; c++ {
				var v float64
				mustParse(t, row[c], &v)
				if v < 0 {
					t.Fatalf("negative latency %v", v)
				}
				if v+1e-9 < prev[c-1] {
					t.Fatalf("%s: percentile column %d not monotone", tab.Title, c)
				}
				prev[c-1] = v
			}
		}
	}
}

func TestFig14RunsAndAPWins(t *testing.T) {
	tabs := env(t).Fig14(100, 400*time.Millisecond, 100*time.Millisecond, 150*time.Millisecond)
	if len(tabs) != 2 {
		t.Fatalf("tables = %d", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) != 4 {
			t.Fatalf("buckets = %d", len(tab.Rows))
		}
		var ap, lin float64
		for _, row := range tab.Rows {
			var a, l float64
			mustParse(t, row[1], &a)
			mustParse(t, row[2], &l)
			ap += a
			lin += l
		}
		if ap <= lin {
			t.Errorf("%s: AP Classifier total %.2f should beat APLinear %.2f", tab.Title, ap, lin)
		}
	}
}

func TestFig15AwareNotWorse(t *testing.T) {
	tabs := env(t).Fig15(3, 64, fastDur)
	for _, tab := range tabs {
		for _, row := range tab.Rows {
			var du, da float64
			mustParse(t, row[3], &du)
			mustParse(t, row[4], &da)
			if da > du+0.05 {
				t.Errorf("%s %s: aware weighted depth %.2f worse than unaware %.2f",
					tab.Title, row[0], da, du)
			}
		}
	}
}

func TestTableIIRuns(t *testing.T) {
	tab := env(t).TableII(64, fastDur)
	if len(tab.Rows) != 6 { // 2 networks × 3 middlebox counts
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		for c := 2; c <= 4; c++ {
			var v float64
			mustParse(t, row[c], &v)
			if v <= 0 {
				t.Fatalf("non-positive throughput in %v", row)
			}
		}
	}
}

func TestOptimalityGap(t *testing.T) {
	tab := env(t).OptimalityGap(7, 5)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		var opt float64
		mustParse(t, row[1], &opt)
		if opt <= 0 {
			t.Fatalf("optimal depth must be positive: %v", row)
		}
		// The gap strings must report non-negative gaps.
		for c := 2; c <= 3; c++ {
			if strings.Contains(row[c], "(-") {
				t.Fatalf("heuristic beat the optimum: %v", row)
			}
		}
	}
}

func TestScaling(t *testing.T) {
	tab := env(t).Scaling([]float64{0.01, 0.03}, 64, fastDur)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var rules0, rules1, depth0, depth1 float64
	mustParse(t, tab.Rows[0][1], &rules0)
	mustParse(t, tab.Rows[1][1], &rules1)
	mustParse(t, tab.Rows[0][4], &depth0)
	mustParse(t, tab.Rows[1][4], &depth1)
	if rules1 <= rules0 {
		t.Fatal("rules must grow with scale")
	}
	// Depth stays near-flat: within a few levels across 3× the rules.
	if depth1 > depth0+5 {
		t.Fatalf("depth exploded with scale: %.1f -> %.1f", depth0, depth1)
	}
}

func TestTraceSamplers(t *testing.T) {
	e := env(t)
	in := e.treeInput("internet2")
	rng := rand.New(rand.NewSource(1))
	trace := uniformTrace(in, e.I2DS.Layout.Bytes(), 100, rng)
	if len(trace) != 100 {
		t.Fatal("trace length")
	}
	for _, p := range trace {
		if len(p) != e.I2DS.Layout.Bytes() {
			t.Fatal("packet size")
		}
	}
	w := paretoWeights(in.Atoms.N(), rng)
	for _, v := range w {
		if v < 1000 || v > 100*1000 {
			t.Fatalf("pareto weight %v out of [1000, 100000]", v)
		}
	}
	wt := weightedTrace(in, e.I2DS.Layout.Bytes(), 200, w, rng)
	if len(wt) != 200 {
		t.Fatal("weighted trace length")
	}
}

func mustParse(t *testing.T, s string, v *float64) {
	t.Helper()
	parsed, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	*v = parsed
}
