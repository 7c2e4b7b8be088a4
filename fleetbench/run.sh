#!/usr/bin/env bash
# Builds the fleet benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash fleetbench/run.sh --workload deploy --seed 1 --seconds 10 --trace 0
#   bash fleetbench/run.sh compare results/base results/change
#
# Build outputs, the Go build cache and the go command's own configuration
# and telemetry files stay in .bench_build/ under the root, so the benchmark
# writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off

go build -C "$root/fleetbench" -o "$out/fleetbench" .
exec "$out/fleetbench" "$@"
