#!/usr/bin/env bash
# Builds the benchmark harness and the pathprofd daemon from this checkout,
# then runs one workload:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build product, cache and scratch
# file stays under .bench_build/ in that root (or $CARGO_TARGET_DIR when
# set), so a run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOWORK=off GOFLAGS=
export GOENV=off GOPROXY=off

go build -C "$root/perfbench" -o "$out/perfbench" .
go build -C "$root" -o "$out/pathprofd" ./cmd/pathprofd

exec "$out/perfbench" -daemon "$out/pathprofd" -work "$out/work" "$@"
