#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds bench/e2e from source into
# .bench_build/ at the root of the checkout — binary and Go build cache both,
# so nothing is read or written outside the checkout — then runs it with the
# arguments given. By hand, `go run ./bench/e2e` does the same with the
# user's own build cache.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o .bench_build/e2e ./bench/e2e >&2
exec .bench_build/e2e "$@"
