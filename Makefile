# Local mirrors of the CI gates (.github/workflows/ci.yml). `make check`
# runs everything CI runs; the narrower targets exist for tight loops.

GO ?= go

# Packages whose concurrency contracts are exercised under the race
# detector (snapshot query path at the facade, Manager two-process
# operation, frozen BDD views, the per-epoch stage-2 memo under rule and
# middlebox deltas, HTTP server, background checkpointer, experiment
# harness workers, pinned verification under rule churn).
RACE_PKGS := . ./internal/aptree ./internal/bdd ./internal/network ./internal/server ./internal/checkpoint ./internal/cluster ./internal/experiments ./internal/lint ./internal/verify

# Packages carrying apdebug-tagged sanitizer tests (post-GC BDD audits,
# AP Tree leaf-partition checks, wiring and rule-delta re-derivations at
# the facade).
APDEBUG_PKGS := . ./internal/bdd ./internal/aptree

# Benchmarks exercised by bench-smoke: the lock-free snapshot query path,
# serial and parallel, plus the mixed query/update workload. A fixed
# -benchtime keeps the step fast; it is a non-regression smoke (the
# benchmarks must run and the parallel path must stay race-clean), not a
# performance gate — numbers live in EXPERIMENTS.md.
BENCH_SMOKE := ^(BenchmarkManagerClassify|BenchmarkParallelClassify|BenchmarkParallelClassifyWithUpdates|BenchmarkBatchClassify)$$

# The facade-level batch benchmark (single vs batched pipeline, behavior
# cache on) lives in the root package; bench-smoke runs it at a tiny
# -benchtime for the same non-regression purpose.
BENCH_SMOKE_ROOT := ^BenchmarkBehaviorBatch$$

# Coverage floor for the observability layer: metrics and traces are what
# operators debug incidents with, so internal/obs stays near-fully tested.
COVER_PKG   := ./internal/obs
COVER_FLOOR := 90.0
COVER_OUT   := coverage-obs.out

# checkpoint-smoke's scratch directory (wiped and recreated each run).
SMOKE_DIR := /tmp/apc-checkpoint-smoke

# Fuzz targets exercised briefly by fuzz-smoke: the two binary decoders
# that parse untrusted bytes, the classify-vs-simulate harness (a fuzzed
# 5-tuple must land on a leaf that holds it and be delivered where the
# rule-table simulator delivers it, on every dataset), the
# interval-coded AtomSet vs its map-of-IDs model, the FIB trie walk
# vs the shadow walk (cold, and region-stitched after cone edits), and
# the atoms of the joint walk of several tables plus ACLs vs refinement
# by every predicate. A short -fuzztime keeps CI fast; long runs are for
# dedicated fuzzing sessions.
FUZZ_TIME ?= 5s

.PHONY: build fmt test vet lint race apdebug bench-smoke bench-gate cover checkpoint-smoke cluster-smoke fuzz-smoke verify-smoke soak-smoke cli-smoke no-orphans check

build:
	$(GO) build ./...

# Formatting gate: fails when gofmt would reformat a file or cannot parse
# it. The lint fixtures under internal/lint/testdata are exempt: they are
# inputs the analyzers are tested on, kept as written.
fmt:
	@out=$$(gofmt -l . 2>&1 | grep -v '^internal/lint/testdata/'); \
	if [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The apdebug build has its own files (sanitizers, tagged tests); vet both.
vet:
	$(GO) vet ./...
	$(GO) vet -tags apdebug ./...

# Project-specific static analysis; see "Static analysis & sanitizers" in
# README.md for the checks and the //lint:ignore suppression syntax.
lint:
	$(GO) run ./cmd/aplint ./...

race:
	$(GO) test -race $(RACE_PKGS)

apdebug:
	$(GO) test -tags apdebug $(APDEBUG_PKGS)

bench-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH_SMOKE)' -benchtime 200x -cpu 1,4 ./internal/aptree
	$(GO) test -run '^$$' -bench '$(BENCH_SMOKE_ROOT)' -benchtime 512x .

# The benchmark (BENCHMARK.json, bench/) as a liveness gate: all six
# workloads at smoke scale, the oracle pass before each window, exit 1 on
# any `correct:false`. Like the other smokes it is not a performance
# gate — a perf claim is a paired -out/-compare run (README "Benchmark").
bench-gate:
	$(GO) run ./bench -workload all -smoke -seconds 5

# Save → restore → verify through the real binaries: apstate writes a
# checkpoint for every generator, then fully decodes and self-checks it.
# This is the end-to-end durability gate (the unit tests cover the codec;
# this covers the shipped tooling).
checkpoint-smoke:
	rm -rf $(SMOKE_DIR) && mkdir -p $(SMOKE_DIR)
	$(GO) run ./cmd/apstate save -net internet2 -scale 0.01 -out $(SMOKE_DIR)/internet2.apc
	$(GO) run ./cmd/apstate save -net stanford -scale 0.003 -out $(SMOKE_DIR)/stanford.apc
	$(GO) run ./cmd/apstate save -net multitenant -out $(SMOKE_DIR)/multitenant.apc
	$(GO) run ./cmd/apstate inspect $(SMOKE_DIR)/internet2.apc
	$(GO) run ./cmd/apstate verify $(SMOKE_DIR)/internet2.apc
	$(GO) run ./cmd/apstate verify $(SMOKE_DIR)/stanford.apc
	$(GO) run ./cmd/apstate verify $(SMOKE_DIR)/multitenant.apc
	rm -rf $(SMOKE_DIR)

# Cluster smoke: the real apserver and aprouter binaries as a 2-shard
# fleet — differential queries against an unsharded oracle, churn fan-out
# through the router, and a SIGTERM restart of one worker with warm
# restore from its final checkpoint. The in-process differential suite
# runs under plain `make test`; this gate covers the process boundary
# (flags, signals, checkpoint files, real sockets).
cluster-smoke:
	$(GO) test ./internal/cluster -run '^TestClusterProcessSmoke$$' -count=1 -v

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime $(FUZZ_TIME) ./internal/bdd
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime $(FUZZ_TIME) ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz '^FuzzClassifyVsSimulate$$' -fuzztime $(FUZZ_TIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzAtomSet$$' -fuzztime $(FUZZ_TIME) ./internal/predicate
	$(GO) test -run '^$$' -fuzz '^FuzzPortPredicates$$' -fuzztime $(FUZZ_TIME) ./internal/predicate
	$(GO) test -run '^$$' -fuzz '^FuzzJointAtoms$$' -fuzztime $(FUZZ_TIME) ./internal/predicate

# Verification smoke: apverify's exhaustive sweeps on the small fat-tree
# — loop freedom must hold, the injected loop must be found, and every
# ingress × host pair must be reachable. Covers the CLI surface plus the
# snapshot-native engine end to end; scale numbers live in EXPERIMENTS.md.
verify-smoke:
	$(GO) run ./cmd/apverify loops -net fattree -preset small
	$(GO) run ./cmd/apverify loops -net fattree -preset small -inject-loop | grep VIOLATED
	$(GO) run ./cmd/apverify reach -net fattree -preset small -all
	$(GO) run ./cmd/apverify blackholes -net fattree -preset small -all

# Soak smoke: cmd/apsoak's four-engine differential (classifier, rule-table
# oracle, HSA, trie) under rule churn and reconstructions, briefly. It
# exits 1 on any divergence or refused rule update.
soak-smoke:
	$(GO) run ./cmd/apsoak -seconds 3

# CLI smoke: cmd/apclassifier end to end — dataset statistics, one query
# whose stage-1 answer must print, and a batch of random queries. aplint's
# unreached check counts every main as a root, so every binary that keeps
# library code alive runs in some gate.
cli-smoke:
	$(GO) run ./cmd/apclassifier -stats
	$(GO) run ./cmd/apclassifier -dst 10.0.0.1 | grep 'atomic predicate'
	$(GO) run ./cmd/apclassifier -random 100

cover:
	$(GO) test -coverprofile=$(COVER_OUT) $(COVER_PKG)
	@total=$$($(GO) tool cover -func=$(COVER_OUT) | awk '/^total:/ { gsub("%","",$$3); print $$3 }'); \
	echo "$(COVER_PKG) coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(t+0 >= f+0) }' || \
		{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# Nothing outlives the gate: fail if a process started from the checkout —
# a smoke still writing under $(SMOKE_DIR), a bench/run.sh worker, the
# cluster smoke's real apserver/aprouter, a soak, a test binary (`go test`
# runs pkg.test from its build temp dir) or any `go run` executable (built
# as go-buildNNN/bNNN/exe/<name>) — is alive once the gates are done.
# pgrep -f matches whole command lines; the bracketed first characters keep
# the pattern from matching the shell that runs it, whose own command line
# holds the pattern's text.
ORPHAN_PATTERN := [a]pc-checkpoint-smoke|[.]bench_build/bench|[a]pserver|[a]prouter|[a]psoak|[.]test( |$$)|[g]o-build[0-9]+/b[0-9]+/exe/
no-orphans:
	@if pgrep -fa '$(ORPHAN_PATTERN)'; then \
		echo "the processes above outlived the gates that started them"; exit 1; \
	fi

check: build fmt vet test lint race apdebug bench-smoke bench-gate checkpoint-smoke cluster-smoke fuzz-smoke verify-smoke soak-smoke cli-smoke cover
	@$(MAKE) --no-print-directory no-orphans
	@echo "all gates passed"
