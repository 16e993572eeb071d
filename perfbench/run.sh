#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload block-clear --seed 1 --seconds 18 --trace 0
# Run from the repository root. Everything the build writes stays under
# $CARGO_TARGET_DIR (default .bench_build) in that root.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOMODCACHE="$build/gomodcache"
# The go command keeps its env file and telemetry under the user config
# directory; point that into the build directory too.
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local
export GOWORK=off
export GOPROXY=off
export GOMAXPROCS="$(nproc)"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
