#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. The Go build cache, temporary files and
# the binary stay in .bench_build/ inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomodcache"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export XDG_CACHE_HOME="$root/.bench_build/cache"
export GOTMPDIR="$root/.bench_build/tmp" TMPDIR="$root/.bench_build/tmp"
mkdir -p "$GOTMPDIR"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
go -C perfbench build -o "$root/.bench_build/perfbench" .
exec "$root/.bench_build/perfbench" "$@"
