#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds dmcsbench from source and
# runs it with the driver's arguments, from the root of a checkout.
# Everything the build and the run write — Go's build cache, the binary,
# WAL directories — stays under ./.bench_build.
set -euo pipefail
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$src" && go build -o "$build/dmcsbench" .)
exec "$build/dmcsbench" "$@"
