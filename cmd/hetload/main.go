// Command hetload is the load generator for hetserved daemons: it
// drives an open- or closed-loop stream of cached-key and cold-key jobs
// at one daemon and reports client-observed throughput and latency
// quantiles (p50/p95/p99).
//
// Usage:
//
//	hetload -addr HOST:PORT [flags]
//
//	-addr ADDR         daemon address (host:port or http:// URL; required)
//	-duration D        measured window (default 3s)
//	-concurrency N     closed-loop workers / open-loop in-flight bound (default 8)
//	-rate R            open-loop arrivals per second (0 = closed loop)
//	-cold F            fraction of requests with never-seen keys (default 0.1)
//	-workload NAME     trace workload the jobs summarise (default barnes)
//	-instr N           per-job instruction budget (default 2000)
//	-seed N            request-stream seed (default 1)
//	-timeout D         per-request timeout (default 30s)
//	-o FILE            write the BENCH_load.json record (default none)
//	-history FILE      append the record to this BENCH_history.jsonl
//
// A human summary goes to stdout; -o writes the machine-readable
// LoadRecord, which `hetcore diff` compares direction-aware against a
// baseline (throughput higher-better, latency quantiles and error rate
// lower-better). scripts/ci.sh uses exactly that pair as its load gate.
// -history feeds the `hetcore trend` gate instead: each run appends one
// JSONL entry and trend compares the newest against the median of its
// predecessors.
//
// Hot keys are warmed through the daemon before the window starts, so
// the cached stream measures the serving path, not cold-start noise;
// cold keys use a dedicated far-away seed range and never collide with
// real experiment keys. Exit status: 0 on success, 1 when the run could
// not execute, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hetcore/internal/dist"
	"hetcore/internal/harness"
)

func main() {
	fs := flag.NewFlagSet("hetload", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon address (host:port or http:// URL; required)")
	duration := fs.Duration("duration", 3*time.Second, "measured window")
	concurrency := fs.Int("concurrency", 8, "closed-loop workers / open-loop in-flight bound")
	rate := fs.Float64("rate", 0, "open-loop arrivals per second (0 = closed loop)")
	cold := fs.Float64("cold", 0.1, "fraction of requests with never-seen keys")
	workload := fs.String("workload", "barnes", "trace workload the jobs summarise")
	instr := fs.Uint64("instr", 2000, "per-job instruction budget")
	seed := fs.Int64("seed", 1, "request-stream seed")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout")
	out := fs.String("o", "", "write the BENCH_load.json record to this file")
	history := fs.String("history", "", "append the record to this BENCH_history.jsonl")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "hetload: -addr is required")
		fs.Usage()
		os.Exit(2)
	}

	rec, err := dist.RunLoad(dist.LoadConfig{
		Addr:         *addr,
		Duration:     *duration,
		Concurrency:  *concurrency,
		RatePerSec:   *rate,
		ColdFraction: *cold,
		Workload:     *workload,
		Instr:        *instr,
		Seed:         *seed,
		Timeout:      *timeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetload:", err)
		os.Exit(1)
	}
	if err := rec.Format(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hetload:", err)
		os.Exit(1)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hetload:", err)
			os.Exit(1)
		}
		if err := rec.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "hetload:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "hetload:", err)
			os.Exit(1)
		}
	}
	if *history != "" {
		entry := harness.NewHistoryEntry(harness.HistoryEntry{Load: &rec}, rec.GoVersion, time.Now().Unix())
		if err := harness.AppendHistory(*history, entry); err != nil {
			fmt.Fprintln(os.Stderr, "hetload:", err)
			os.Exit(1)
		}
	}
}
