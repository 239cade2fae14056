#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout,
# passing every argument through. Nothing outside the checkout is read or
# written: the build cache, the binary and go's own bookkeeping all live in
# .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$root/bench" build -o "$build/naplet-bench" .
cd "$root"
exec "$build/naplet-bench" "$@"
