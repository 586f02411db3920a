#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes (compiler cache, binary) stays inside the
# checkout, under .bench_build/ at the repository root; the benchmark's own
# output goes to benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/../.bench_build"
build="$(cd "$here/../.bench_build" && pwd)"
cd "$here"
GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly \
	go build -o "$build/scapbench" .
exec "$build/scapbench" "$@"
