#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The build cache, the linker's temporary files, the go command's own
# configuration directory (where it keeps its telemetry counters) and the
# binary all stay under .bench_build in the checkout, so nothing is written
# outside it. In a directory without the module (no go.mod) the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
