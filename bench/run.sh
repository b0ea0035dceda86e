#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout.
# Everything the Go toolchain and the benchmark write (build cache, binary,
# temp files, store directories) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly TMPDIR="$build/tmp"
go build -C "$root/bench" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
