#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload durable-tenants --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it writes goes under
# .bench_build/ there: the Go build cache, the binary, the workloads' data
# directories (removed at exit), span files and report fingerprints.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"

# Keep the toolchain's caches and settings inside the checkout, build only
# from local sources, and never reach for the network.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off GOTELEMETRY=off
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
