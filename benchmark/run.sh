#!/usr/bin/env bash
# Entry point of the repository benchmark (see BENCHMARK.json, README.md).
# Builds the benchmark program from source into .bench_build/ inside the
# checkout, then replaces itself with it. Everything go writes (build cache,
# module cache, config, temporaries) stays under .bench_build/ too.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# Fails here, before any result line, when the parent module (the program
# under test) is missing: the benchmark measures the program, not itself.
go build -C "$here" -o "$build/benchmark" .
export BENCH_OUT="${BENCH_OUT:-$here/out}"
exec "$build/benchmark" "$@"
