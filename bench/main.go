// Command bench is the repository's one benchmark: six named workloads
// over the whole stack (facade, HTTP server, sharded router, rule-delta
// engine, verifier), a fixed set of end-to-end metrics every workload
// reports, and per-layer attribution measured from outside the program —
// by wrapping the handlers the benchmark hosts, replaying the generated
// inputs at each public boundary, and diffing the obs registry around the
// measured window. BENCHMARK.json at the repository root is its contract;
// README.md in this directory is the glossary.
//
//	go run ./bench -workload <name|all> -seed <n> [-seconds s] [-trace 0|1] [-out ledger.json] [-smoke]
//	go run ./bench -compare a.json b.json
//
// Everything runs in this one process, on one P: the servers and the
// router listen on real loopback sockets, the load comes from one
// goroutine with one keep-alive connection (churn_mixed: one for queries,
// one for updates), and all of them take turns on one core. The benchmark
// claims no gain; it is the ruler later changes are held to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints, in the shape the driver reads.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// hostShape records where a run was measured.
type hostShape struct {
	NumCPU     int    `json:"ncpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	GitSHA     string `json:"git_sha"`
}

// transportNote is printed with every run: the numbers are loopback
// numbers, and client, router and servers compete for the same CPUs.
const transportNote = "loopback TCP inside one process with GOMAXPROCS=1: client, router and servers take turns on one core"

// runRecord is one run with its context — the line printed before the
// result and the element of a ledger file (-out, -compare).
type runRecord struct {
	Workload  string    `json:"workload"`
	Why       string    `json:"why"`
	Seed      int64     `json:"seed"`
	Trace     int       `json:"trace"`
	Seconds   float64   `json:"seconds"`
	Smoke     bool      `json:"smoke,omitempty"`
	Transport string    `json:"transport"`
	Host      hostShape `json:"host"`
	// Claim is always null: this program measures, it does not claim.
	Claim *string `json:"claim"`
	// Noise is (max−min)/median of each end-to-end metric across the
	// run's slices (across its set-ups for setup_s).
	Noise map[string]float64 `json:"noise,omitempty"`
	// Samples is the number of timed operations behind op_p50_ms; TailMS
	// is the same operation at the percentile Tail names (context, not a
	// gated metric: see loadgen.op_tail_ms).
	Samples int     `json:"samples,omitempty"`
	Tail    string  `json:"tail,omitempty"`
	TailMS  float64 `json:"tail_ms,omitempty"`
	// CalibMS is the fastest run of the loop that brackets each slice;
	// NoisySlices counts the slices whose loop was over 10% slower.
	CalibMS     float64 `json:"calib_ms,omitempty"`
	NoisySlices int     `json:"noisy_slices"`
	// Absent lists obs series a per-layer metric wanted and did not find
	// (the metric then reads 0).
	Absent []string `json:"absent_series,omitempty"`
	Result *result  `json:"result,omitempty"`
}

func host() hostShape {
	h := hostShape{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitSHA: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.GitSHA = s.Value
			}
		}
	}
	return h
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or \"all\"")
	seed := fs.Int64("seed", 1, "seed for headers, ingress choice and churn ops")
	seconds := fs.Float64("seconds", 24, "measured window per workload, cut into slices of about a second")
	trace := fs.Int("trace", 0, "1 records spans, replays each layer and reports the per-layer metrics")
	out := fs.String("out", "", "append each run to this ledger file")
	smoke := fs.Bool("smoke", false, "tiny datasets, for a quick functional check")
	compare := fs.Bool("compare", false, "compare two ledger files: bench -compare a.json b.json")
	spec := fs.String("spec", "BENCHMARK.json", "metric directions and bounds for -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two ledger files")
			return 2
		}
		return compareLedgers(stdout, stderr, *spec, fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: want -seconds > 0, -trace 0 or 1, and no positional arguments")
		return 2
	}
	var todo []*workload
	for i := range workloads {
		if *name == "all" || *name == workloads[i].name {
			todo = append(todo, &workloads[i])
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	sz := fullSizing
	if *smoke {
		sz = smokeSizing
	}
	status := 0
	for _, w := range todo {
		rec, err := runWorkload(w, sz, *seed, *seconds, *trace == 1, "bench/out")
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		rec.Smoke = *smoke
		if *out != "" {
			if err := appendLedger(*out, rec); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		if err := printRecord(stdout, rec); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if !rec.Result.Correct {
			status = 1
		}
	}
	return status
}

// printRecord writes the context line, then the result line the driver
// parses. Metric values keep every digit they were measured with.
func printRecord(w io.Writer, rec *runRecord) error {
	ctx := *rec
	ctx.Result = nil
	line, err := json.Marshal(ctx)
	if err != nil {
		return err
	}
	res, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", line, res)
	return err
}

// ledger is the file format of -out and -compare.
type ledger struct {
	Schema int         `json:"schema"`
	Runs   []runRecord `json:"runs"`
}

func readLedger(path string) (*ledger, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(raw, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

func appendLedger(path string, rec *runRecord) error {
	l := &ledger{Schema: 1}
	if _, err := os.Stat(path); err == nil {
		if l, err = readLedger(path); err != nil {
			return err
		}
	}
	l.Runs = append(l.Runs, *rec)
	raw, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// band is the noise band printed beside a median: (max−min)/median.
func band(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / math.Abs(m)
}

// percentile returns the q-quantile (nearest rank) of sorted ns samples.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
