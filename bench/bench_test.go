package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke pushes every workload through the untraced and the traced run
// at the smoke sizing: every metric BENCHMARK.json names must come out,
// finite, with no failed operation, and every recorded child span must lie
// inside its parent so that self times add up.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			rec, err := runWorkload(w, smokeSizing, 1, 0.3, false, out)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, rec, len(endToEndUnit))
			for name, unit := range endToEndUnit {
				v, ok := rec.Result.Metrics[name]
				if !ok || v.Unit != unit || !(v.Value > 0) {
					t.Errorf("end-to-end metric %s = %+v (present %v), want a positive value in %s", name, v, ok, unit)
				}
			}

			rec, err = runWorkload(w, smokeSizing, 1, 0.3, true, out)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, rec, len(perLayer))
			for _, def := range perLayer {
				v, ok := rec.Result.Metrics[def.name]
				if !ok || v.Unit != def.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("per-layer metric %s = %+v (present %v), want a finite value in %s", def.name, v, ok, def.unit)
				}
			}
			checkTraceFile(t, filepath.Join(out, "trace-"+w.name+".json"))
		})
	}
}

func checkResult(t *testing.T, rec *runRecord, metrics int) {
	t.Helper()
	r := rec.Result
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d, want a correct run", r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != metrics {
		t.Errorf("%d metrics reported, want %d", len(r.Metrics), metrics)
	}
	if rec.Claim != nil {
		t.Errorf("claim = %q, want null", *rec.Claim)
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		Spans []span               `json:"spans"`
		Names map[string]nameStats `json:"span_summary"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 || len(tf.Names) == 0 {
		t.Fatalf("trace file lists %d spans and %d names", len(tf.Spans), len(tf.Names))
	}
	byID := map[int64]span{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	self := selfTimes(tf.Spans)
	children := map[int64]int64{}
	for _, s := range tf.Spans {
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		p, ok := byID[s.Parent]
		if s.Parent == 0 {
			continue
		}
		if !ok {
			t.Errorf("span %d %s: parent %d is not in the file", s.ID, s.Name, s.Parent)
			continue
		}
		if s.Start < p.Start || s.End > p.End || s.Request != p.Request {
			t.Errorf("span %d %s [%d,%d] request %d is not inside its parent %s [%d,%d] request %d",
				s.ID, s.Name, s.Start, s.End, s.Request, p.Name, p.Start, p.End, p.Request)
		}
		children[s.Parent] += s.End - s.Start
	}
	for _, s := range tf.Spans {
		// Children that overlap (two shards in parallel) cover less than
		// their durations add up to; otherwise the parts sum to the whole.
		if got := self[s.ID]; got < 0 || got+children[s.ID] < s.End-s.Start {
			t.Errorf("span %d %s: self %d + children %d does not cover its %d ns", s.ID, s.Name, got, children[s.ID], s.End-s.Start)
		}
	}
}

// TestSpecMatchesProgram holds BENCHMARK.json and the program's own tables
// together: workload names and reasons, metric names and units.
func TestSpecMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []specMetric `json:"end_to_end"`
		PerLayer  []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	// BENCHMARK.json gates a subset of the program's workloads (the driver's
	// time budget decides how many), in the program's order.
	next := 0
	for _, w := range spec.Workloads {
		for next < len(workloads) && workloads[next].name != w.Name {
			next++
		}
		if next == len(workloads) {
			t.Errorf("workload %q of BENCHMARK.json is not in the program, or out of order", w.Name)
			break
		}
		if w.Why != workloads[next].why {
			t.Errorf("workload %s: BENCHMARK.json says %q, the program %q", w.Name, w.Why, workloads[next].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEndUnit) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEndUnit))
	}
	for _, m := range spec.EndToEnd {
		if endToEndUnit[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, endToEndUnit[m.Name])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json has %s (%s), the program %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a by 10
		{ID: 4, Parent: 2, Name: "leaf", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 50, 2: 25, 3: 30, 4: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

// TestCompare writes two ledgers and checks every verdict -compare can
// give, and that only "worse" fails the command.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	specJSON := `{"workloads":[{"name":"w"}],"end_to_end":[
	 {"name":"qps","unit":"1/s","better":"higher","bound":0.10},
	 {"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.10},
	 {"name":"op_tail_ms","unit":"ms","better":"lower","bound":0.10},
	 {"name":"setup_s","unit":"s","better":"lower","bound":0.10}]}`
	if err := os.WriteFile(spec, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, qps, p50, tail, setup, tailNoise float64) string {
		path := filepath.Join(dir, name)
		rec := &runRecord{Workload: "w", Noise: map[string]float64{"op_tail_ms": tailNoise}, Result: &result{Correct: true, Attempted: 1, Metrics: map[string]value{
			"qps": {qps, "1/s"}, "op_p50_ms": {p50, "ms"}, "op_tail_ms": {tail, "ms"}, "setup_s": {setup, "s"},
		}}}
		if err := appendLedger(path, rec); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 1000, 1.0, 5.0, 2.0, 0.02)
	b := write("b.json", 1200, 1.05, 5.0, 2.5, 0.30) // qps better, p50 within, tail unresolved, setup worse
	var out, errs bytes.Buffer
	if code := compareLedgers(&out, &errs, spec, a, b); code != 1 {
		t.Errorf("exit status %d with a worse row, want 1; stderr %q", code, errs.String())
	}
	for metric, want := range map[string]string{"qps": "better", "op_p50_ms": "within", "op_tail_ms": "unresolved", "setup_s": "worse"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[1] == metric {
				found = f[len(f)-1] == want
			}
		}
		if !found {
			t.Errorf("metric %s: want verdict %q in\n%s", metric, want, out.String())
		}
	}
	out.Reset()
	if code := compareLedgers(&out, &errs, spec, a, a); code != 0 {
		t.Errorf("exit status %d comparing a ledger with itself, want 0\n%s", code, out.String())
	}
}
