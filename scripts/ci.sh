#!/bin/sh
# ci.sh - the full local gate: formatting, vet, build, race-enabled tests,
# and the cross-run regression diff against the committed sim-rate baseline.
# Run from the repository root: ./scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
served_pid=""
cleanup() {
    [ -n "$served_pid" ] && kill "$served_pid" 2>/dev/null
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== embedded assets =="
asset=internal/obs/dashboard.html
if [ ! -s "$asset" ]; then
    echo "missing or empty embedded dashboard asset: $asset" >&2
    exit 1
fi
if grep -nE '[ 	]+$' "$asset" >&2; then
    echo "trailing whitespace in $asset" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== engine determinism (go test -race) =="
# The run-plan engine carries the whole -jobs determinism contract, so
# its tests (plus the harness golden jobs=1-vs-jobs=8 comparison) get an
# explicit race-enabled pass before the full suite.
go test -race ./internal/engine/
go test -race -run 'TestFigTablesDeterministicAcrossJobs|TestEngineCacheSharedAcrossFigures|TestSoCDeterministicAcrossJobs|TestSoCAccelDeterministicAcrossJobs|TestTrafficDeterministicAcrossJobs' ./internal/harness/

echo "== go test -race =="
go test -race ./...

echo "== benchmark module (perfbench) =="
# perfbench is its own Go module that imports this one through a replace
# directive, so the root go vet/test above never build it: vet and test
# it here so a change to the API it uses cannot break it silently.
(cd perfbench && go vet ./... && go test ./...)

echo "== hot-loop micro-benchmarks =="
# One iteration each, so the benchmarks that size hot-loop changes keep
# building and running; their timings gate nothing.
go test -run '^$' -bench . -benchtime 1x ./internal/gpu ./internal/cache

echo "== regression gate (hetcore diff) =="
# Re-measure this host's simulation rate at the baseline's budget and
# compare against the committed record. The deterministic instruction
# counts must match exactly (default 0.1% tolerance); the rates are host
# timing, so only a >75% slowdown fails — catching pathological
# regressions without flaking on machine-to-machine variance.
go build -o "$tmp/hetcore" ./cmd/hetcore
# Seed the trend history from the committed baseline so the bench
# measurement below also lands a history entry for the trend gate.
cp scripts/baseline/BENCH_history.jsonl "$tmp/BENCH_history.jsonl"
"$tmp/hetcore" bench -instr 300000 -o "$tmp/BENCH_sim_rate.json" \
    -history "$tmp/BENCH_history.jsonl" >/dev/null
"$tmp/hetcore" diff -rate-tol 75 scripts/baseline/BENCH_sim_rate.json "$tmp/BENCH_sim_rate.json"

echo "== hotspots gate (hetcore hotspots) =="
# A tiny workload under the stage profiler and pprof must yield a
# schema-stamped report with a populated stage attribution. The share
# arithmetic (sums to 1 per device group) is pinned by go tests; this
# gate proves the end-to-end CLI path on a real profile.
"$tmp/hetcore" hotspots -instr 150000 -json -o "$tmp/hotspots.json" >/dev/null
for want in '"schema": "hetcore.prof/v1"' '"stage_attribution"' '"stage": "cpu.execute"'; do
    if ! grep -q "$want" "$tmp/hotspots.json"; then
        echo "hotspots report missing $want:" >&2
        cat "$tmp/hotspots.json" >&2
        exit 1
    fi
done

echo "== dist gate (persistent cache + hetserved) =="
# End-to-end check of internal/dist: run the same experiment twice
# against one -cache-dir — the second run must simulate nothing
# (engine_jobs_run == 0) and print byte-identical tables — then a third
# time through a live hetserved daemon, which must also match.
go build -o "$tmp/hetserved" ./cmd/hetserved
"$tmp/hetserved" -addr 127.0.0.1:0 -addr-file "$tmp/hetserved.addr" \
    -cache-dir "$tmp/server-cache" 2>"$tmp/hetserved.log" &
served_pid=$!

dist_run() {
    # $1: output file, extra args follow.
    out=$1; shift
    "$tmp/hetcore" run -exp fig7 -workloads barnes,radix -instr 40000 \
        "$@" >"$out"
}

dist_run "$tmp/dist-run1.txt" -cache-dir "$tmp/client-cache"
dist_run "$tmp/dist-run2.txt" -cache-dir "$tmp/client-cache" -metrics-out "$tmp/dist-run2.json"
cmp "$tmp/dist-run1.txt" "$tmp/dist-run2.txt" || {
    echo "cached rerun output differs from the first run" >&2
    exit 1
}
if ! grep -q '"engine_jobs_run": 0' "$tmp/dist-run2.json"; then
    echo "cached rerun still simulated (engine_jobs_run != 0):" >&2
    grep '"engine_' "$tmp/dist-run2.json" >&2
    exit 1
fi

# Wait for the daemon to publish its address (it builds in background
# while the cache runs above execute).
i=0
while [ ! -s "$tmp/hetserved.addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ] || ! kill -0 "$served_pid" 2>/dev/null; then
        echo "hetserved did not start:" >&2
        cat "$tmp/hetserved.log" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(cat "$tmp/hetserved.addr")

dist_run "$tmp/dist-run3.txt" -remote "$addr"
cmp "$tmp/dist-run1.txt" "$tmp/dist-run3.txt" || {
    echo "remote run output differs from the local run" >&2
    cat "$tmp/hetserved.log" >&2
    exit 1
}

echo "== soc gate (determinism + cached rerun) =="
# The SoC design-space search must render byte-identical tables across
# -jobs widths, and a second sweep against the same -cache-dir must
# simulate nothing: its components and compositions are all engine jobs,
# so they disk-cache like any figure suite.
soc_run() {
    # $1: output file, extra args follow.
    out=$1; shift
    "$tmp/hetcore" soc -workloads fft,radix -instr 40000 "$@" >"$out"
}

soc_run "$tmp/soc-jobs1.txt" -jobs 1 -cache-dir "$tmp/soc-cache"
soc_run "$tmp/soc-jobs8.txt" -jobs 8 -cache-dir "$tmp/soc-cache" \
    -metrics-out "$tmp/soc-rerun.json"
cmp "$tmp/soc-jobs1.txt" "$tmp/soc-jobs8.txt" || {
    echo "soc search differs between -jobs=1 and -jobs=8" >&2
    exit 1
}
if ! grep -q '"engine_jobs_run": 0' "$tmp/soc-rerun.json"; then
    echo "cached soc rerun still simulated (engine_jobs_run != 0):" >&2
    grep '"engine_' "$tmp/soc-rerun.json" >&2
    exit 1
fi
if ! grep -q '"soc_configs_evaluated"' "$tmp/soc-rerun.json"; then
    echo "soc manifest counters missing from the report" >&2
    exit 1
fi

echo "== accel gate (soc -accel determinism + cached rerun) =="
# The accelerator search rides the same engine contract: -jobs widths
# must render byte-identical tables (now including the accel and
# socaccel comparisons), and a cached rerun must simulate nothing.
accel_run() {
    # $1: output file, extra args follow.
    out=$1; shift
    "$tmp/hetcore" soc -accel -workloads fft -instr 40000 "$@" >"$out"
}

accel_run "$tmp/accel-jobs1.txt" -jobs 1 -cache-dir "$tmp/accel-cache"
accel_run "$tmp/accel-jobs8.txt" -jobs 8 -cache-dir "$tmp/accel-cache" \
    -metrics-out "$tmp/accel-rerun.json"
cmp "$tmp/accel-jobs1.txt" "$tmp/accel-jobs8.txt" || {
    echo "accel search differs between -jobs=1 and -jobs=8" >&2
    exit 1
}
if ! grep -q '"engine_jobs_run": 0' "$tmp/accel-rerun.json"; then
    echo "cached accel rerun still simulated (engine_jobs_run != 0):" >&2
    grep '"engine_' "$tmp/accel-rerun.json" >&2
    exit 1
fi
if ! grep -q 'TFET accelerator mix' "$tmp/accel-jobs1.txt"; then
    echo "socaccel verdict missing from soc -accel output" >&2
    exit 1
fi

echo "== traffic gate (determinism + cached rerun + energy trend) =="
# The traffic scenario matrix rides the same engine contract: -jobs
# widths must render byte-identical tables and reports, and a second run
# against the same -cache-dir must simulate nothing. The second run also
# appends its hetcore.traffic/v1 report to the trend history, so the
# energy-per-request accounting is gated against the committed baseline
# by the trend step below.
traffic_run() {
    # $1: output file, extra args follow.
    out=$1; shift
    "$tmp/hetcore" traffic -instr 40000 "$@" >"$out"
}

traffic_run "$tmp/traffic-jobs1.txt" -jobs 1 -cache-dir "$tmp/traffic-cache" \
    -o "$tmp/traffic-report1.json"
traffic_run "$tmp/traffic-jobs8.txt" -jobs 8 -cache-dir "$tmp/traffic-cache" \
    -o "$tmp/traffic-report2.json" -metrics-out "$tmp/traffic-rerun.json" \
    -history "$tmp/BENCH_history.jsonl"
# The stdout tables differ only in the trailing wrote/appended lines.
grep -v '^wrote \|^appended ' "$tmp/traffic-jobs1.txt" >"$tmp/traffic-jobs1.tbl"
grep -v '^wrote \|^appended ' "$tmp/traffic-jobs8.txt" >"$tmp/traffic-jobs8.tbl"
cmp "$tmp/traffic-jobs1.tbl" "$tmp/traffic-jobs8.tbl" || {
    echo "traffic table differs between -jobs=1 and -jobs=8" >&2
    exit 1
}
cmp "$tmp/traffic-report1.json" "$tmp/traffic-report2.json" || {
    echo "cached traffic rerun report is not byte-identical" >&2
    exit 1
}
if ! grep -q '"engine_jobs_run": 0' "$tmp/traffic-rerun.json"; then
    echo "cached traffic rerun still simulated (engine_jobs_run != 0):" >&2
    grep '"engine_' "$tmp/traffic-rerun.json" >&2
    exit 1
fi
if ! grep -q '"schema": "hetcore.traffic/v1"' "$tmp/traffic-report1.json"; then
    echo "traffic report missing its schema stamp" >&2
    exit 1
fi

echo "== load gate (hetload p99 vs baseline) =="
# Drive a short closed-loop job stream at the live daemon and gate the
# client-observed serving latency. With -rate-tol 400 the gate trips
# only when a latency quantile exceeds 5x the committed baseline (or
# any request errors against the zero-error baseline) — catching
# serialization bugs and accidental hot-path sleeps without flaking on
# host speed.
go build -o "$tmp/hetload" ./cmd/hetload
"$tmp/hetload" -addr "$addr" -duration 2s -concurrency 4 -cold 0.2 \
    -o "$tmp/BENCH_load.json" -history "$tmp/BENCH_history.jsonl" >/dev/null
"$tmp/hetcore" diff -rate-tol 400 scripts/baseline/BENCH_load.json "$tmp/BENCH_load.json"

kill "$served_pid" 2>/dev/null
served_pid=""

echo "== trend gate (hetcore trend) =="
# The history now holds the committed baseline entries plus this run's
# bench, load and traffic measurements; the newest entry of each kind must not
# regress against the median of its predecessors. Deterministic counts
# stay exact; host-timing rates share the load gate's loose 400%
# tolerance so the gate proves the trend pipeline without host flake.
"$tmp/hetcore" trend -history "$tmp/BENCH_history.jsonl" -rate-tol 400

echo "CI OK"
