// Command apserver runs AP Classifier as an HTTP/JSON service — the form
// an SDN controller would consume it in.
//
//	apserver -net internet2 -scale 0.05 -listen :8080
//	curl -s localhost:8080/stats
//	curl -s -X POST localhost:8080/query -d '{"ingress":"seattle","dst":"10.1.2.3"}'
//	curl -s -X POST localhost:8080/rules/batch -d '[{"op":"add-fwd","box":"seattle","prefix":"240.0.0.0/8","port":-1}]'
//	curl -s localhost:8080/verify/loops
//
// Durability (see README "Checkpoint & warm restart"):
//
//	apserver -net internet2 -checkpoint-dir /var/lib/apc   # checkpoint continuously
//	apserver -checkpoint-dir /var/lib/apc -restore         # warm-restart from the newest checkpoint
//	curl -s -X POST localhost:8080/checkpoint              # force a save right now
//
// With -checkpoint-dir set, a background runner saves the published
// classifier epoch after every coalesced update burst and on SIGINT/
// SIGTERM writes a final checkpoint before exiting, so the next
// -restore start resumes exactly where this one stopped — without
// re-converting rules or rebuilding the AP Tree.
//
// Observability (see README "Observability"):
//
//	curl -s localhost:8080/metrics        # Prometheus text exposition
//	curl -s localhost:8080/debug/trace?n=8 # last 8 per-query stage traces
//	go tool pprof localhost:8080/debug/pprof/profile
//
// Cluster mode (see README "Cluster mode" and DESIGN §12): run N workers
// with -shard k/N behind cmd/aprouter. A worker refuses queries outside
// its header-space slice (421), reports readiness on /healthz, and on
// SIGTERM drains in-flight requests before writing its final checkpoint.
// -bootstrap-from pulls a sibling's newest checkpoint so a joining
// worker warm-restores instead of rebuilding from rules:
//
//	apserver -net internet2 -shard 0/2 -listen :8081 -checkpoint-dir /var/lib/apc0
//	apserver -net internet2 -shard 1/2 -listen :8082 -checkpoint-dir /var/lib/apc1 \
//	    -bootstrap-from http://localhost:8081
//	aprouter -shards http://localhost:8081,http://localhost:8082 -listen :8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"apclassifier"
	"apclassifier/internal/checkpoint"
	"apclassifier/internal/cluster"
	"apclassifier/internal/netgen"
	"apclassifier/internal/server"
)

func main() {
	netName := flag.String("net", "internet2", "dataset: internet2, stanford or multitenant")
	scale := flag.Float64("scale", 0.05, "rule-volume scale")
	seed := flag.Int64("seed", 1, "generator seed")
	load := flag.String("load", "", "load a dataset snapshot file instead of generating")
	listen := flag.String("listen", ":8080", "listen address")
	ckptDir := flag.String("checkpoint-dir", "", "directory for durable classifier checkpoints (empty = disabled)")
	ckptInterval := flag.Duration("checkpoint-interval", 30*time.Second, "periodic checkpoint cadence (0 = only update-triggered)")
	ckptKeep := flag.Int("checkpoint-keep", 3, "checkpoint generations to retain")
	restore := flag.Bool("restore", false, "warm-restart from the newest checkpoint in -checkpoint-dir")
	shardSpec := flag.String("shard", "", "serve one shard of a cluster partition, as \"k/N\" (empty = unsharded)")
	shardMode := flag.String("shard-mode", "header", "partition function: header (5-tuple hash) or ingress (ingress-box hash)")
	bootstrapFrom := flag.String("bootstrap-from", "", "peer apserver base URL to fetch the newest checkpoint from before starting (requires -checkpoint-dir)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "grace period for in-flight requests on SIGTERM before the final checkpoint")
	flag.Parse()

	var part cluster.Partition
	if *shardSpec != "" {
		mode, err := cluster.ParseMode(*shardMode)
		if err != nil {
			fatal(err)
		}
		if part, err = cluster.ParseShard(*shardSpec, mode); err != nil {
			fatal(err)
		}
	}

	var dir *checkpoint.Dir
	if *ckptDir != "" {
		var err error
		if dir, err = checkpoint.Open(*ckptDir, *ckptKeep); err != nil {
			fatal(err)
		}
	}

	// Peer bootstrap: pull the sibling's newest checkpoint into our own
	// directory, then take the warm-restore path below as if we had saved
	// it ourselves. A peer with no checkpoint yet (404) is not an error —
	// the fleet's first worker always builds cold.
	if *bootstrapFrom != "" {
		if dir == nil {
			fatal(errors.New("-bootstrap-from requires -checkpoint-dir"))
		}
		switch path, err := bootstrap(dir, *bootstrapFrom); {
		case err == nil:
			fmt.Printf("bootstrapped checkpoint from %s: %s\n", *bootstrapFrom, path)
			*restore = true
		case errors.Is(err, os.ErrNotExist):
			fmt.Printf("peer %s has no checkpoint yet; building cold\n", *bootstrapFrom)
		default:
			fatal(err)
		}
	}

	// Warm path: rebuild the classifier from the newest checkpoint — no
	// rule conversion, no atomic-predicate computation, no tree build.
	// An empty directory falls back to a cold build (first boot); a
	// corrupt-only directory is an error worth stopping for.
	var c *apclassifier.Classifier
	if *restore {
		if dir == nil {
			fatal(errors.New("-restore requires -checkpoint-dir"))
		}
		start := time.Now()
		rc, err := apclassifier.RestoreDir(dir)
		switch {
		case err == nil:
			c = rc
			fmt.Printf("%s warm-restarted in %v from %s: %d rules, %d predicates, %d atoms (epoch %d)\n",
				c.Dataset.Name, time.Since(start).Round(time.Millisecond), dir.Path(),
				c.Dataset.NumRules(), c.NumPredicates(), c.NumAtoms(), c.Manager.Version())
		case errors.Is(err, os.ErrNotExist):
			fmt.Printf("no checkpoint in %s yet; building cold\n", dir.Path())
		default:
			fatal(err)
		}
	}
	if c == nil {
		ds, err := netgen.Select(*netName, *load, *seed, *scale)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		if c, err = apclassifier.New(ds, apclassifier.Options{}); err != nil {
			fatal(err)
		}
		fmt.Printf("%s compiled in %v: %d rules, %d predicates, %d atoms\n",
			ds.Name, time.Since(start).Round(time.Millisecond),
			ds.NumRules(), c.NumPredicates(), c.NumAtoms())
	}

	s := server.New(c)
	if part.Enabled() {
		s.SetPartition(part)
		fmt.Printf("serving shard %s (%s partition)\n", part, part.Mode)
	}
	var runner *checkpoint.Runner
	if dir != nil {
		runner = s.EnableCheckpoints(dir, checkpoint.RunnerConfig{
			Interval: *ckptInterval,
			OnError:  func(err error) { fmt.Fprintln(os.Stderr, "apserver: checkpoint:", err) },
		})
		fmt.Printf("checkpointing to %s every %v (and after updates)\n", dir.Path(), *ckptInterval)
	}

	fmt.Printf("listening on %s\n", *listen)
	srv := &http.Server{
		Addr:              *listen,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fatal(err)
	case got := <-sig:
		fmt.Printf("\nreceived %s; draining\n", got)
		// Drain order matters: flip /healthz to not-ready first so the
		// router stops routing here, then let in-flight requests finish,
		// and only then write the final checkpoint — so the checkpoint
		// includes every update acknowledged before the listener closed.
		s.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		// In-flight requests get the grace period; a timeout just means we
		// proceed to the final checkpoint with whatever state is published.
		_ = srv.Shutdown(ctx)
		cancel()
		if runner != nil {
			runner.Stop() // writes the final checkpoint if state is dirty
			if latest, err := dir.Latest(); err == nil {
				fmt.Printf("final checkpoint: %s (restart with -restore to resume)\n", latest)
			}
		}
	}
}

// bootstrap fetches a peer's newest checkpoint and commits it into dir.
// A peer reporting 404 (no checkpoint committed yet) maps onto
// os.ErrNotExist so the caller can fall back to a cold build.
func bootstrap(dir *checkpoint.Dir, baseURL string) (string, error) {
	url := strings.TrimRight(baseURL, "/") + "/checkpoint/latest"
	client := &http.Client{Timeout: 2 * time.Minute}
	resp, err := client.Get(url)
	if err != nil {
		return "", fmt.Errorf("bootstrap: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return dir.Ingest(resp.Body)
	case http.StatusNotFound:
		return "", fmt.Errorf("bootstrap: peer has no checkpoint: %w", os.ErrNotExist)
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return "", fmt.Errorf("bootstrap: %s: %s: %s", url, resp.Status, strings.TrimSpace(string(msg)))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "apserver:", err)
	os.Exit(1)
}
