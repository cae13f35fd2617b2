#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#   bash perfbench/run.sh --workload matrix --seed 1 --seconds 40 --trace 0
# Run it from the repository root. Build outputs, scratch inputs, span
# files and result files all stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
# XDG_CONFIG_HOME keeps the go command's telemetry and env file in the
# checkout too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" "$@"
