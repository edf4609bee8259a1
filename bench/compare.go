package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// specMetric is one end_to_end entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
}

func readSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// side is one ledger's view of a (metric, workload) pair: the median over
// its untraced runs and the noise band around it — the interquartile range
// over the runs as a share of the median when there are at least four,
// otherwise the widest slice-to-slice band any run recorded.
type side struct {
	n             int
	median, noise float64
}

func sideOf(l *ledger, workload, metric string) side {
	var vals []float64
	inRun := 0.0
	for _, r := range l.Runs {
		if r.Workload != workload || r.Trace != 0 || r.Result == nil {
			continue
		}
		v, ok := r.Result.Metrics[metric]
		if !ok {
			continue
		}
		vals = append(vals, v.Value)
		inRun = math.Max(inRun, r.Noise[metric])
	}
	s := side{n: len(vals), median: median(vals), noise: inRun}
	if len(vals) >= 4 && s.median != 0 {
		sort.Float64s(vals)
		q1, q3 := quartiles(vals)
		s.noise = (q3 - q1) / math.Abs(s.median)
	}
	return s
}

// quartiles are the first and third cut points of sorted xs by the
// exclusive method — what Python's statistics.quantiles(xs, n=4) returns.
func quartiles(xs []float64) (q1, q3 float64) {
	at := func(p float64) float64 {
		pos := p * float64(len(xs)+1)
		i := int(pos)
		switch {
		case i < 1:
			return xs[0]
		case i >= len(xs):
			return xs[len(xs)-1]
		}
		return xs[i-1] + (pos-float64(i))*(xs[i]-xs[i-1])
	}
	return at(0.25), at(0.75)
}

// verdict judges b against a: "unresolved" when either side's noise is
// wider than the bound, else "worse"/"better" when the medians differ by
// more than the bound in that direction, else "within".
func verdict(a, b side, m specMetric) string {
	if a.n == 0 || b.n == 0 || a.median == 0 {
		return "missing"
	}
	if a.noise > m.Bound || b.noise > m.Bound {
		return "unresolved"
	}
	change := (b.median - a.median) / math.Abs(a.median)
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return "worse"
	case change < -m.Bound:
		return "better"
	}
	return "within"
}

// workloadsIn lists the workloads the ledgers hold runs of, in the order
// they first appear: BENCHMARK.json names only the ones the driver gates,
// and a by-hand pair may be of any.
func workloadsIn(ls ...*ledger) []string {
	var names []string
	seen := map[string]bool{}
	for _, l := range ls {
		for _, r := range l.Runs {
			if !seen[r.Workload] {
				seen[r.Workload] = true
				names = append(names, r.Workload)
			}
		}
	}
	return names
}

// compareLedgers prints one row per (metric, workload) and returns 1 when
// any row is worse.
func compareLedgers(stdout, stderr io.Writer, specPath, pathA, pathB string) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	var ls [2]*ledger
	for i, p := range []string{pathA, pathB} {
		if ls[i], err = readLedger(p); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median\ta noise\tb median\tb noise\tbound\tverdict")
	status := 0
	for _, w := range workloadsIn(ls[0], ls[1]) {
		for _, m := range spec.EndToEnd {
			a, b := sideOf(ls[0], w, m.Name), sideOf(ls[1], w, m.Name)
			v := verdict(a, b, m)
			if v == "worse" {
				status = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.3f\t%.6g\t%.3f\t%.2f\t%s\n",
				w, m.Name, m.Unit, a.median, a.noise, b.median, b.noise, m.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	return status
}
