#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
#
#   bash perfbench/run.sh --workload train-dse --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Every build artefact, cache and
# trace file stays under .bench_build/ there.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/perfbench" "$build/tmp"

# Keep the toolchain's caches and config inside the checkout and never
# reach for a module proxy or another toolchain: the module has no
# external requirements.
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go telemetry off >/dev/null 2>&1 || true

(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" "$@"
