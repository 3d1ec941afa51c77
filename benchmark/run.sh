#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark (its own module,
# benchmark/go.mod) into .bench_build and runs it from the repo root; the
# benchmark in turn builds cmd/cameod there. Everything the go command
# writes stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/cameobench" .) >&2
cd "$root"
exec "$build/cameobench" "$@"
