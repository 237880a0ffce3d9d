#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it
# with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload agent --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (the binary, the Go build cache, temporary
# files) stays under .bench_build in the current directory.
set -euo pipefail

mkdir -p .bench_build
build="$(cd .bench_build && pwd)"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
(cd "$here" && go build -buildvcs=false -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
