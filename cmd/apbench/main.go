// Command apbench regenerates the paper's evaluation tables and figures
// (§VII) on the synthetic datasets and prints them as text tables, plus
// the two beyond-the-paper sweeps no bench/ workload covers (optgap,
// scaling). Everything else beyond the paper is measured by
// `go run ./bench` (see BENCHMARK.json).
//
// Usage:
//
//	apbench [-scale small|mid|full] [-run all|id,id,...]
//
// `apbench -h` lists the experiment ids; an unknown id is a usage error.
//
// At -scale full the rule volumes match Table I of the paper (≈126k rules
// for Internet2, ≈757k + 1,584 ACL rules for Stanford); expect several
// minutes of dataset compilation.
//
// -metrics dumps the process-wide obs registry (the same registry
// apserver's /metrics serves) in Prometheus text format after the
// selected experiments finish, so offline benchmark numbers and
// production metrics come from one instrumentation source.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"apclassifier/internal/experiments"
	"apclassifier/internal/obs"
)

// params are the knobs the experiments share.
type params struct {
	trees int
	dur   time.Duration
	full  bool
}

type tables = []*experiments.Table

// runners is the one table of experiment ids: `-run all` executes it top
// to bottom, the -run help and the unknown-id error list it, and an id
// that is not in it is rejected before any dataset is compiled.
var runners = []struct {
	id  string
	run func(e *experiments.Env, p params) tables
}{
	{"tableI", func(e *experiments.Env, p params) tables { return tables{e.TableI()} }},
	{"fig4", func(e *experiments.Env, p params) tables { return e.Fig4(p.trees, 256, p.dur) }},
	{"fig9", func(e *experiments.Env, p params) tables { return tables{e.Fig9(p.trees)} }},
	{"fig10", func(e *experiments.Env, p params) tables { return e.Fig10(p.trees) }},
	{"mem", func(e *experiments.Env, p params) tables { return tables{e.MemoryUsage()} }},
	{"fig11", func(e *experiments.Env, p params) tables { return tables{e.Fig11(p.trees)} }},
	{"fig12", func(e *experiments.Env, p params) tables { return tables{e.Fig12(p.trees, 256, p.dur)} }},
	{"fig13", func(e *experiments.Env, p params) tables { return e.Fig13(40) }},
	{"fig14", func(e *experiments.Env, p params) tables {
		var tabs tables
		for _, rate := range []int{100, 200} {
			tabs = append(tabs, e.Fig14(rate, 1200*time.Millisecond, 100*time.Millisecond, 400*time.Millisecond)...)
		}
		return tabs
	}},
	{"fig15", func(e *experiments.Env, p params) tables { return e.Fig15(10, 512, p.dur) }},
	{"tableII", func(e *experiments.Env, p params) tables { return tables{e.TableII(256, p.dur)} }},
	{"optgap", func(e *experiments.Env, p params) tables { return tables{e.OptimalityGap(10, 20)} }},
	{"scaling", func(e *experiments.Env, p params) tables {
		scales := []float64{0.02, 0.05, 0.1, 0.2, 0.5}
		if p.full {
			scales = append(scales, 1.0)
		}
		return tables{e.Scaling(scales, 256, p.dur)}
	}},
}

// runnerIDs is the comma-separated id list for help and error texts.
func runnerIDs() string {
	ids := make([]string, len(runners))
	for i, r := range runners {
		ids[i] = r.id
	}
	return strings.Join(ids, ",")
}

// parseRun resolves the -run value against the id table. A misspelt or
// retired id is an error: it used to select nothing and exit 0, so a
// script passing it kept "passing".
func parseRun(spec string) (map[string]bool, error) {
	selected := map[string]bool{}
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		known := id == "all"
		for _, r := range runners {
			known = known || r.id == id
		}
		if !known {
			return nil, fmt.Errorf("unknown experiment id %q", id)
		}
		selected[id] = true
	}
	return selected, nil
}

func main() {
	scaleFlag := flag.String("scale", "", "dataset scale: small, mid (default) or full; overrides APBENCH_SCALE")
	runFlag := flag.String("run", "all", "comma-separated experiment ids ("+runnerIDs()+") or 'all'")
	dur := flag.Duration("dur", 200*time.Millisecond, "minimum measurement duration per throughput point")
	trees := flag.Int("trees", 0, "random trees for fig4/fig9/fig10/fig12 (0 = scale default)")
	metrics := flag.String("metrics", "", "after the run, dump the obs registry in Prometheus text format to this file ('-' for stdout)")
	flag.Parse()

	selected, err := parseRun(*runFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apbench: %v\nvalid ids: %s, or all\n", err, runnerIDs())
		os.Exit(2)
	}

	if *scaleFlag != "" {
		if err := os.Setenv("APBENCH_SCALE", *scaleFlag); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	scale := experiments.DefaultScale()

	p := params{trees: *trees, dur: *dur, full: scale.Name == "full"}
	if p.trees == 0 {
		p.trees = 20
		if p.full {
			p.trees = 100 // the paper's Best-from-Random uses 100 trees
		}
	}

	fmt.Printf("building datasets at scale %q (internet2 ×%.3g, stanford ×%.3g)...\n",
		scale.Name, scale.I2, scale.SF)
	start := time.Now()
	env, err := experiments.NewEnv(scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Printf("datasets compiled in %v\n\n", time.Since(start).Round(time.Millisecond))

	for _, r := range runners {
		if selected["all"] || selected[r.id] {
			for _, t := range r.run(env, p) {
				fmt.Println(t)
			}
		}
	}

	if *metrics != "" {
		if err := dumpMetrics(*metrics); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	}
}

// dumpMetrics writes the process-wide registry to path ('-' = stdout).
func dumpMetrics(path string) error {
	if path == "-" {
		return obs.Default.WritePrometheus(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.Default.WritePrometheus(f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}
