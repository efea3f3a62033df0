#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build artifact (the Go build
# cache, the binary) stays under .bench_build/ in that root, and the
# module is built offline with the installed toolchain. A failed build
# exits non-zero without printing a result line.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build/perfbench"
mkdir -p "${out}/gocache" "${out}/home"
export GOCACHE="${out}/gocache"
export GOPATH="${out}/gopath"
export HOME="${out}/home"
export XDG_CONFIG_HOME="${out}/home"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTELEMETRY=off

go build -C perfbench -o "${out}/perfbench" .
exec "${out}/perfbench" "$@"
