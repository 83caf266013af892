#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source
# into .bench_build/ at the root of the checkout, then runs it with the
# driver's arguments. The Go build cache, temp files and the run's
# scratch stores all stay under .bench_build/, so nothing is read or
# written outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/jarvis-benchmark" .)
exec "$build/jarvis-benchmark" -scratch "$build/tmp" "$@"
