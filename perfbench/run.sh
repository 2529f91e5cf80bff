#!/usr/bin/env bash
# Builds cmd/dsed and the benchmark from this checkout into .bench_build,
# then runs the benchmark from the checkout root. Every build input and
# output stays inside the checkout; nothing is downloaded.
#
#   bash perfbench/run.sh --workload frontier-full --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/dsed" ./cmd/dsed
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -work "$out" "$@"
