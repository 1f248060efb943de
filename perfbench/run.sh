#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it. Run from the
# root of the repository:
#
#   bash perfbench/run.sh --workload kernels --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, serve temp dirs, span files and drift
# records all live under .bench_build/ in the checkout. Go's build cache
# makes every build after the first a quick no-op.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomodcache"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" "$@"
