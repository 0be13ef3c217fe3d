#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload paper_cpu --seed 1 --seconds 20 --trace 0
# Run it from the repository root. Every build and run artifact stays
# under .bench_build/ there.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
