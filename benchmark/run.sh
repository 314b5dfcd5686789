#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness inside the
# checkout (binaries and the Go build cache live under .bench_build/, so
# nothing is written outside the checkout) and runs it; the harness then
# builds cmd/ssjoin and cmd/serve from the same tree. Fails with a non-zero
# status when the repository around benchmark/ is missing.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/bin/benchmark" .)
BENCH_ROOT="$root" exec "$build/bin/benchmark" "$@"
