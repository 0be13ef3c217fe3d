package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hetcore/internal/dist"
	"hetcore/internal/obs"
	"hetcore/internal/traffic"
)

// The goldens in this file pin the rendered output of `hetcore diff` on
// every payload kind and of `hetcore trend` on a mixed history: row
// order, metric naming, the tolerance each metric uses and the median
// arithmetic. Every case goes through the file-level entry points, so
// the JSON sniffing and decoding are part of what is pinned.

// writeJSONFile writes v as indented JSON (in the order given, unlike
// the traffic report's own sorting writer) and returns the path.
func writeJSONFile(t *testing.T, dir, name string, v any) string {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// diffGoldenCase is one titled `hetcore diff` comparison.
type diffGoldenCase struct {
	title    string
	old, new any
	opts     DiffOptions
}

// renderDiffCases diffs each case through DiffFiles and renders the
// tables one after another under their titles.
func renderDiffCases(t *testing.T, cases []diffGoldenCase) []byte {
	t.Helper()
	dir := t.TempDir()
	var buf bytes.Buffer
	for i, c := range cases {
		oldPath := writeJSONFile(t, dir, fmt.Sprintf("old%d.json", i), c.old)
		newPath := writeJSONFile(t, dir, fmt.Sprintf("new%d.json", i), c.new)
		res, err := DiffFiles(oldPath, newPath, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.title, err)
		}
		fmt.Fprintf(&buf, "## %s (kind %s)\n", c.title, res.Kind)
		if err := res.Format(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func goldenBenchRecord() BenchRecord {
	return BenchRecord{
		Schema: "hetcore.bench/v1", GoVersion: "go-test",
		CPUWorkload: "barnes", CPUInstructions: 300_000, CPUInstsPerSec: 1.2e6,
		GPUKernel: "MatrixMultiplication", GPUWaveInsts: 100_000, GPUWaveInstsPerSec: 2.5e6,
		SuiteJobs: 2, SuiteRuns: 24, SuiteRunsPerSec: 12,
	}
}

func TestGoldenDiffBench(t *testing.T) {
	old := goldenBenchRecord()
	slow := old
	slow.CPUInstsPerSec = 0.6e6     // -50%: beyond RateTol
	slow.GPUWaveInstsPerSec = 2.3e6 // -8%: host noise
	slow.SuiteRunsPerSec = 8.4      // -30%: beyond RateTol
	fast := old
	fast.CPUInstsPerSec = 1.8e6    // +50%: improved
	fast.SuiteRunsPerSec = 15      // +25% exactly: not beyond RateTol
	fast.CPUInstructions = 300_150 // +0.05%: within RelTol
	preSuite := old                // a baseline older than the suite fields
	preSuite.SuiteJobs, preSuite.SuiteRuns, preSuite.SuiteRunsPerSec = 0, 0, 0
	got := renderDiffCases(t, []diffGoldenCase{
		{title: "slowdown", old: old, new: slow},
		{title: "improvement", old: old, new: fast},
		{title: "old record without suite fields", old: preSuite, new: slow, opts: DiffOptions{RateTol: 0.75}},
	})
	checkGolden(t, "diff_bench.golden", got)
}

func TestGoldenDiffLoad(t *testing.T) {
	old := dist.LoadRecord{
		Schema: dist.LoadSchemaVersion, GoVersion: "go-test", Mode: "closed",
		Concurrency: 4, DurationSeconds: 2, ColdFraction: 0.2,
		Requests: 1000, RequestsPerSec: 500,
		LatencyMeanMS: 2, LatencyP50MS: 1.5, LatencyP95MS: 5, LatencyP99MS: 10,
	}
	errs := old // an error against a zero-error baseline, loose rate gate
	errs.Errors, errs.ErrorRate = 2, 0.002
	errs.LatencyP99MS = 30
	errs.RequestsPerSec = 200
	dirty := old
	dirty.Errors, dirty.ErrorRate = 10, 0.01
	dirtier := dirty // +5% errors fail at RelTol while +5% latency passes
	dirtier.ErrorRate = 0.0105
	dirtier.LatencyP50MS = 1.575
	slow := old
	slow.RequestsPerSec = 650 // +30%: improved
	slow.LatencyP95MS = 7     // +40%: regressed
	got := renderDiffCases(t, []diffGoldenCase{
		{title: "error on a zero-error baseline", old: old, new: errs, opts: DiffOptions{RateTol: 4}},
		{title: "error rate at RelTol", old: dirty, new: dirtier},
		{title: "latency and throughput", old: old, new: slow},
	})
	checkGolden(t, "diff_load.golden", got)
}

// goldenTrafficReport holds three scenarios in a deliberately unsorted
// order: diff rows must follow the old report's order.
func goldenTrafficReport(trace string) traffic.Report {
	sc := func(name, policy string, epr, p99 float64, slo uint64) traffic.Result {
		return traffic.Result{Scenario: name, Mix: "c4t4g0", Policy: policy, Trace: trace,
			Seed: 1, Requests: 1200, Completed: 1200, EnergyPerReqJ: epr,
			P50Sec: 0.004, P99Sec: p99, SLOViolations: slo, SLOSec: 0.05, SimSec: 60}
	}
	return traffic.Report{
		Schema: traffic.SchemaVersion, Trace: trace, SLOMS: 50, Seed: 1,
		Scenarios: []traffic.Result{
			sc("c4t4g0+util", "util", 6e-5, 0.011, 2),
			sc("c4t4g0+cacheaware", "cacheaware", 5e-5, 0.012, 0),
			sc("c4t4g0+naive", "naive", 7e-5, 0.010, 0),
		},
	}
}

func TestGoldenDiffTraffic(t *testing.T) {
	old := goldenTrafficReport("diurnal")
	costly := goldenTrafficReport("diurnal")
	costly.Scenarios[1].EnergyPerReqJ = 5.5e-5 // +10%: regressed
	costly.Scenarios[0].P99Sec = 0.009         // improved
	costly.Scenarios[2].DeadlineMisses = 3     // against zero: regressed
	// A renamed trace: rows stay keyed by the old trace and match by
	// scenario name; the vanished scenario regresses and the added one
	// is noted under the new trace.
	reshaped := goldenTrafficReport("diurnal-b")
	reshaped.Scenarios = append(reshaped.Scenarios[:1], reshaped.Scenarios[2],
		traffic.Result{Scenario: "c4t4g0+eco", Mix: "c4t4g0", Policy: "eco",
			Trace: "diurnal-b", Requests: 1200, EnergyPerReqJ: 4e-5})
	got := renderDiffCases(t, []diffGoldenCase{
		{title: "energy-per-request rise", old: old, new: costly},
		{title: "missing and new scenario", old: old, new: reshaped},
	})
	checkGolden(t, "diff_traffic.golden", got)
}

func TestGoldenDiffReportRuns(t *testing.T) {
	old := fixtureReport()
	old.Manifest.Runs = 10
	more := fixtureReport()
	more.Manifest.Runs = 11           // +10%: improved at RelTol
	more.Manifest.SimRateKIPS = 5500  // +10%: ok at RateTol
	more.Runs = append(more.Runs[1:], // fig7 run gone, two new runs
		obs.RunRecord{Experiment: "fig8", Kind: "cpu", Config: "BaseCMOS", Workload: "radix",
			Instructions: 1000, TimeSec: 1e-6, IPC: 1},
		obs.RunRecord{Kind: "cpu", Config: "AdvHet", Workload: "fft",
			Instructions: 1000, TimeSec: 1e-6, IPC: 1})
	fewer := fixtureReport()
	fewer.Manifest.Runs = 9 // -10%: regressed at RelTol
	got := renderDiffCases(t, []diffGoldenCase{
		{title: "more runs, one missing", old: old, new: more},
		{title: "fewer runs", old: old, new: fewer, opts: DiffOptions{RateTol: 0.5}},
	})
	checkGolden(t, "diff_report_runs.golden", got)
}

// goldenTrendHistory is a mixed bench/load/traffic history, written the
// way `-history` appends it and read back through LoadHistory.
func goldenTrendHistory(t *testing.T) []HistoryEntry {
	t.Helper()
	var entries []HistoryEntry
	unix := int64(0)
	add := func(kind string, set func(*HistoryEntry)) {
		unix++
		e := HistoryEntry{Schema: TrendSchemaVersion, Kind: kind, UnixSec: unix, GoVersion: "go-test"}
		set(&e)
		entries = append(entries, e)
	}
	bench := func(rate float64, insts uint64, suiteRuns int) {
		b := goldenBenchRecord()
		b.CPUInstsPerSec, b.CPUInstructions = rate, insts
		b.SuiteRuns = suiteRuns
		if suiteRuns == 0 {
			b.SuiteJobs, b.SuiteRunsPerSec = 0, 0
		}
		add("bench", func(e *HistoryEntry) { e.Bench = &b })
	}
	load := func(rps, p99 float64) {
		l := dist.LoadRecord{Schema: dist.LoadSchemaVersion, GoVersion: "go-test",
			Mode: "closed", Concurrency: 4, Requests: 1000, RequestsPerSec: rps,
			LatencyP50MS: 1, LatencyP95MS: 2, LatencyP99MS: p99}
		add("load", func(e *HistoryEntry) { e.Load = &l })
	}
	traf := func(trace string, eprScale float64, slo uint64, keep ...int) {
		r := goldenTrafficReport(trace)
		var sc []traffic.Result
		for _, i := range keep {
			s := r.Scenarios[i]
			s.EnergyPerReqJ *= eprScale
			s.SLOViolations += slo
			sc = append(sc, s)
		}
		r.Scenarios = sc
		add("traffic", func(e *HistoryEntry) { e.Traffic = &r })
	}

	traf("flat", 2, 0, 2)    // naive only; ages out of a window of 2
	bench(0.9e6, 300_000, 0) // predates the suite fields
	load(480, 3)
	traf("diurnal", 1, 1, 0, 1) // util, cacheaware
	bench(1.0e6, 300_001, 24)
	load(520, 4)
	bench(1.1e6, 300_001, 25)
	traf("bursty", 1.1, 2, 2, 1) // naive, cacheaware under a new trace label
	bench(1.2e6, 300_000, 25)
	load(500, 3.4)
	traf("diurnal", 1.05, 2, 1, 0) // newest: util and cacheaware only
	bench(1.05e6, 300_000, 25)     // newest bench

	path := filepath.Join(t.TempDir(), "BENCH_history.jsonl")
	for _, e := range entries {
		if err := AppendHistory(path, e); err != nil {
			t.Fatal(err)
		}
	}
	got, err := LoadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestGoldenTrendMixed(t *testing.T) {
	hist := goldenTrendHistory(t)
	var buf bytes.Buffer
	for _, window := range []int{0, 2} {
		res := Trend(hist, window, DiffOptions{})
		fmt.Fprintf(&buf, "## window %d (regressed %v)\n", window, res.Regressed())
		if err := res.Format(&buf); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "trend_mixed.golden", buf.Bytes())
}
