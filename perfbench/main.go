// Command perfbench is the repository benchmark: it runs one named
// workload against the public functions of internal/harness,
// internal/engine and internal/dist, checks every output, and prints
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run) as the last line of standard output. See README.md.
//
//	perfbench --workload paper_cpu --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// lanes is the engine width of every workload (and of the serve
// daemon): the reference host has two CPUs, and all load comes from this
// one process.
const lanes = 2

// setupReps is how many times each run sets its workload up; setup_s is
// the median.
const setupReps = 5

// endToEnd and perLayer are the metric names and units the benchmark
// prints; BENCHMARK.json lists the same (a test keeps them in step).
var endToEnd = map[string]string{
	"setup_s":     "s",
	"wall_s":      "s",
	"cpu_s":       "s",
	"warm_wall_s": "s",
	"peak_rss_mb": "MB",
	"jobs_per_s":  "1/s",
	"p50_ms":      "ms",
	"p99_ms":      "ms",
}

var perLayer = map[string]string{
	"trace.insts":                "count",
	"trace.busy_s":               "s",
	"trace.insts_per_s":          "1/s",
	"trace.repeat_share":         "ratio",
	"cpu.insts":                  "count",
	"cpu.self_s":                 "s",
	"cpu.insts_per_s":            "1/s",
	"cache.accesses":             "count",
	"cache.busy_s":               "s",
	"cache.accesses_per_s":       "1/s",
	"gpu.wave_insts":             "count",
	"gpu.busy_s":                 "s",
	"gpu.wave_insts_per_s":       "1/s",
	"hetsim.self_s":              "s",
	"engine.jobs_run":            "count",
	"engine.memo_hits":           "count",
	"engine.disk_hits":           "count",
	"engine.memo_hit_share":      "ratio",
	"engine.queue_s":             "s",
	"engine.overhead_us_per_job": "us",
	"engine.lane_idle_s":         "s",
	"dist.puts":                  "count",
	"dist.put_s":                 "s",
	"dist.encode_s":              "s",
	"dist.gets":                  "count",
	"dist.get_s":                 "s",
	"dist.decode_s":              "s",
	"dist.get_hit_ratio":         "ratio",
	"dist.bytes":                 "bytes",
	"dist.wire_ms":               "ms",
	"dist.server_queue_ms":       "ms",
	"dist.server_exec_ms":        "ms",
	"dist.server_encode_ms":      "ms",
	"dist.response_bytes":        "bytes",
	"soc.evals":                  "count",
	"soc.busy_s":                 "s",
	"soc.evals_per_s":            "1/s",
	"soc.over_budget_share":      "ratio",
	"traffic.epochs":             "count",
	"traffic.busy_s":             "s",
	"traffic.epochs_per_s":       "1/s",
	"harness.self_s":             "s",
	"runtime.alloc_mb":           "MB",
	"runtime.gc_cycles":          "count",
	"runtime.gc_pause_s":         "s",
	"unattributed_s":             "s",
	"trace_overhead_s":           "s",
	"fail_frac":                  "ratio",
}

// workload is one benchmark workload.
type workload interface {
	// untraced measures the end-to-end metrics.
	untraced(e *env) (map[string]float64, error)
	// traced measures the per-layer metrics.
	traced(e *env) (map[string]float64, error)
}

var workloads = map[string]workload{
	"paper_cpu": batchSpecs["paper_cpu"],
	"paper_gpu": batchSpecs["paper_gpu"],
	"codesign":  batchSpecs["codesign"],
	"serve":     serveWorkload{},
}

// env is the state one benchmark run shares across its phases.
type env struct {
	name    string
	seed    uint64
	seconds float64
	scratch string // run-private directory, removed at exit
	stdout  io.Writer
	log     io.Writer
	tally   tally
}

// tally counts attempted operations and failed ones (job errors, wrong
// or inconsistent outputs, failed requests) across a run.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	problems          []string
}

// check counts one operation, failed unless ok.
func (t *tally) check(ok bool, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
		if len(t.problems) < 20 {
			t.problems = append(t.problems, fmt.Sprintf(format, args...))
		}
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed; expected output digests are kept for seed 1")
	secs := fs.Float64("seconds", 20, "measured time of one run")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *secs <= 0 || (*traced != 0 && *traced != 1) || *seed == 0 {
		fmt.Fprintln(stderr, "perfbench: need --seconds > 0, --trace 0|1 and --seed > 0")
		return 2
	}
	scratch := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	e := &env{name: *name, seed: *seed, seconds: *secs, scratch: scratch, stdout: stdout, log: stderr}

	host, _ := json.Marshal(map[string]any{
		"workload": *name, "seed": *seed, "seconds": *secs, "trace": *traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"engine_lanes": lanes, "go": runtime.Version(),
	})
	fmt.Fprintf(stdout, "host %s\n", host)

	var metrics map[string]float64
	var err error
	want := endToEnd
	if *traced == 1 {
		metrics, err = w.traced(e)
		want = perLayer
	} else {
		metrics, err = w.untraced(e)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := buildResult(e, metrics, want)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *traced == 1 {
		fmt.Fprintf(stderr, "perfbench: traced run peak RSS %.1f MB\n", peakRSSMB())
	}
	for _, p := range e.tally.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// buildResult attaches units and insists the workload produced exactly
// the metric set the mode promises.
func buildResult(e *env, metrics map[string]float64, want map[string]string) (resultOut, error) {
	out := resultOut{Metrics: map[string]metricOut{}}
	e.tally.mu.Lock()
	defer e.tally.mu.Unlock()
	if e.tally.attempted == 0 {
		return out, errors.New("no operation was attempted")
	}
	out.Attempted, out.Failed = e.tally.attempted, e.tally.failed
	out.Correct = e.tally.failed == 0
	if _, ok := want["fail_frac"]; ok {
		metrics["fail_frac"] = float64(out.Failed) / float64(out.Attempted)
	}
	for name, unit := range want {
		v, ok := metrics[name]
		if !ok {
			return out, fmt.Errorf("workload %s did not measure %s", e.name, name)
		}
		out.Metrics[name] = metricOut{Value: v, Unit: unit}
	}
	for name := range metrics {
		if _, ok := want[name]; !ok {
			return out, fmt.Errorf("workload %s measured unlisted metric %s", e.name, name)
		}
	}
	return out, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setupMedian runs a workload's set-up setupReps times and returns the
// median duration with the last set-up's state.
func setupMedian[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var state T
	var ds []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 && teardown != nil {
			teardown(state)
		}
		start := time.Now()
		s, err := setup()
		if err != nil {
			return state, 0, fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(start).Seconds())
		state = s
	}
	return state, median(ds), nil
}
