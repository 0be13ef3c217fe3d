package harness

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetcore/internal/dist"
	"hetcore/internal/obs"
)

// fixtureReport builds a deterministic report with two runs.
func fixtureReport() obs.Report {
	return obs.Report{
		Manifest: obs.Manifest{
			Schema:      obs.SchemaVersion,
			Runs:        2,
			SimRateKIPS: 5000,
		},
		Runs: []obs.RunRecord{
			{
				Experiment: "fig7", Kind: "cpu", Config: "AdvHet", Workload: "barnes",
				Instructions: 400000, Cycles: 320000, TimeSec: 1.6e-4, IPC: 1.25,
				EnergyJ: map[string]float64{"core": 2.0e-4, "cache": 0.5e-4},
			},
			{
				Experiment: "fig10", Kind: "gpu", Config: "AdvHet-GPU", Workload: "MatMul",
				Instructions: 800000, Cycles: 500000, TimeSec: 5.0e-4, IPC: 1.6,
				EnergyJ: map[string]float64{"simd": 3.0e-4},
			},
		},
	}
}

func TestDiffReportsIdentical(t *testing.T) {
	r := fixtureReport()
	res := diffRows("report", reportRows(&r), reportRows(&r), DiffOptions{})
	if res.Regressed() {
		t.Fatalf("identical reports regressed: %+v", res.Regressions())
	}
	for _, row := range res.Rows {
		if row.Status != "ok" {
			t.Fatalf("row %s status = %s, want ok", row.Metric, row.Status)
		}
	}
}

func TestDiffReportsRegression(t *testing.T) {
	old := fixtureReport()
	bad := fixtureReport()
	bad.Runs[0].IPC = 1.0                // -20% IPC: regression
	bad.Runs[1].EnergyJ["simd"] = 4.0e-4 // +33% energy: regression
	bad.Manifest.SimRateKIPS = 4500      // -10%: within RateTol, ok
	res := diffRows("report", reportRows(&old), reportRows(&bad), DiffOptions{})
	if !res.Regressed() {
		t.Fatal("regressed report passed")
	}
	status := map[string]string{}
	for _, row := range res.Rows {
		status[row.Metric] = row.Status
	}
	if status["fig7/cpu/AdvHet/barnes.ipc"] != "REGRESSED" {
		t.Fatalf("ipc drop not flagged: %v", status)
	}
	if status["fig10/gpu/AdvHet-GPU/MatMul.energy_j"] != "REGRESSED" {
		t.Fatalf("energy rise not flagged: %v", status)
	}
	if status["manifest.sim_rate_kips"] != "ok" {
		t.Fatalf("10%% rate dip should be within tolerance: %v", status)
	}
}

func TestDiffReportsImprovementPasses(t *testing.T) {
	old := fixtureReport()
	better := fixtureReport()
	better.Runs[0].IPC = 2.0        // higher is better
	better.Runs[0].TimeSec = 1.0e-4 // lower is better
	res := diffRows("report", reportRows(&old), reportRows(&better), DiffOptions{})
	if res.Regressed() {
		t.Fatalf("improvement flagged as regression: %+v", res.Regressions())
	}
}

func TestDiffReportsDeterminismDrift(t *testing.T) {
	old := fixtureReport()
	drift := fixtureReport()
	drift.Runs[0].Instructions = 400100 // instruction count is exact-match
	res := diffRows("report", reportRows(&old), reportRows(&drift), DiffOptions{RelTol: 1e-5})
	if !res.Regressed() {
		t.Fatal("instruction-count drift not flagged")
	}
}

func TestDiffReportsMissingRun(t *testing.T) {
	old := fixtureReport()
	short := fixtureReport()
	short.Runs = short.Runs[:1]
	short.Manifest.Runs = 1
	res := diffRows("report", reportRows(&old), reportRows(&short), DiffOptions{})
	if !res.Regressed() {
		t.Fatal("missing run not flagged")
	}
	// The reverse — a new run appearing — must pass.
	res = diffRows("report", reportRows(&short), reportRows(&old), DiffOptions{})
	if res.Regressed() {
		t.Fatalf("added run flagged as regression: %+v", res.Regressions())
	}
}

// TestDiffReportsOperatingPoints: runs of one config and workload at
// several fig14 DVFS points are told apart by their variant, so a change
// at any point, not only the last one recorded, regresses, and a report
// with two runs under one key is refused rather than half compared.
func TestDiffReportsOperatingPoints(t *testing.T) {
	points := func() obs.Report {
		r := obs.Report{Manifest: obs.Manifest{Schema: obs.SchemaVersion, Runs: 4}}
		for _, v := range []string{"dvfs:BaseFreq-2GHz", "dvfs:BoostFreq-2.5GHz", "dvfs:SlowFreq-1.5GHz", "dvfs:ProcessVariation"} {
			r.Runs = append(r.Runs, obs.RunRecord{
				Experiment: "fig14", Kind: "cpu", Config: "AdvHet", Workload: "barnes", Variant: v,
				Instructions: 20000, TimeSec: 5e-6, IPC: 0.5, EnergyJ: map[string]float64{"core": 2e-6},
			})
		}
		return r
	}
	old, slow := points(), points()
	slow.Runs[0].TimeSec = 6e-6
	for _, r := range []*obs.Report{&old, &slow} {
		if err := checkReport(r); err != nil {
			t.Fatal(err)
		}
	}
	res := diffRows("report", reportRows(&old), reportRows(&slow), DiffOptions{})
	status := map[string]string{}
	for _, row := range res.Rows {
		status[row.Metric] = row.Status
	}
	if got := status["fig14/cpu/AdvHet/barnes/dvfs:BaseFreq-2GHz.time_sec"]; got != "REGRESSED" {
		t.Fatalf("slowdown at the first operating point: status %q, rows %v", got, status)
	}
	if n := len(res.Regressions()); n != 1 {
		t.Errorf("%d regressions, want 1: %+v", n, res.Regressions())
	}

	dup := points()
	dup.Runs[1].Variant = dup.Runs[0].Variant
	if err := checkReport(&dup); err == nil || !strings.Contains(err.Error(), "fig14/cpu/AdvHet/barnes/dvfs:BaseFreq-2GHz") {
		t.Errorf("duplicate run key: err = %v, want one naming the key", err)
	}
}

func TestDiffBench(t *testing.T) {
	old := BenchRecord{CPUInstsPerSec: 1e6, GPUWaveInstsPerSec: 2e6,
		CPUInstructions: 2000000, GPUWaveInsts: 500000}
	same := old
	if res := diffRows("bench", benchRows(&old), benchRows(&same), DiffOptions{}); res.Regressed() {
		t.Fatalf("identical bench records regressed: %+v", res.Regressions())
	}
	slow := old
	slow.CPUInstsPerSec = 5e5 // -50%: beyond the default 25% RateTol
	if res := diffRows("bench", benchRows(&old), benchRows(&slow), DiffOptions{}); !res.Regressed() {
		t.Fatal("halved sim rate not flagged")
	}
	jitter := old
	jitter.CPUInstsPerSec = 0.9e6 // -10%: host noise, within tolerance
	if res := diffRows("bench", benchRows(&old), benchRows(&jitter), DiffOptions{}); res.Regressed() {
		t.Fatalf("10%% rate jitter flagged: %+v", res.Regressions())
	}
}

func fixtureLoadRecord() dist.LoadRecord {
	return dist.LoadRecord{
		Schema: dist.LoadSchemaVersion, Mode: "closed", Concurrency: 4,
		DurationSeconds: 2, ColdFraction: 0.1,
		Requests: 1000, RequestsPerSec: 500,
		LatencyMeanMS: 2, LatencyP50MS: 1.5, LatencyP95MS: 5, LatencyP99MS: 10,
	}
}

func TestDiffLoad(t *testing.T) {
	old := fixtureLoadRecord()
	if res := diffRows("load", loadRows(&old), loadRows(&old), DiffOptions{}); res.Regressed() {
		t.Fatalf("identical load records regressed: %+v", res.Regressions())
	}
	// p99 blow-up beyond RateTol regresses; the direction is respected —
	// the same magnitude of improvement passes.
	slow := old
	slow.LatencyP99MS = 100
	res := diffRows("load", loadRows(&old), loadRows(&slow), DiffOptions{})
	if !res.Regressed() {
		t.Fatal("10x p99 not flagged")
	}
	if got := res.Regressions()[0].Metric; got != "latency_p99_ms" {
		t.Fatalf("regressed metric = %s, want latency_p99_ms", got)
	}
	if res := diffRows("load", loadRows(&slow), loadRows(&old), DiffOptions{}); res.Regressed() {
		t.Fatalf("p99 improvement flagged: %+v", res.Regressions())
	}
	// Throughput collapse regresses, jitter does not.
	stall := old
	stall.RequestsPerSec = 100
	if res := diffRows("load", loadRows(&old), loadRows(&stall), DiffOptions{}); !res.Regressed() {
		t.Fatal("-80% throughput not flagged")
	}
	jitter := old
	jitter.RequestsPerSec = 450
	jitter.LatencyP99MS = 11
	if res := diffRows("load", loadRows(&old), loadRows(&jitter), DiffOptions{}); res.Regressed() {
		t.Fatalf("host jitter flagged: %+v", res.Regressions())
	}
	// Any error against a zero-error baseline regresses, regardless of
	// how loose the rate tolerance is.
	errs := old
	errs.Errors, errs.ErrorRate = 3, 0.003
	if res := diffRows("load", loadRows(&old), loadRows(&errs), DiffOptions{RateTol: 10}); !res.Regressed() {
		t.Fatal("new errors against a clean baseline not flagged")
	}
}

func TestDiffFilesSniffing(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, gen func(w io.Writer) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := gen(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	rep := fixtureReport()
	repPath := write("report.json", rep.WriteJSON)
	bench := BenchRecord{Schema: "hetcore.bench/v1", CPUInstsPerSec: 1e6,
		GPUWaveInstsPerSec: 2e6, CPUInstructions: 2000000, GPUWaveInsts: 500000}
	benchPath := write("bench.json", bench.WriteJSON)
	loadPath := write("load.json", fixtureLoadRecord().WriteJSON)

	res, err := DiffFiles(repPath, repPath, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "report" || res.Regressed() {
		t.Fatalf("report self-diff: kind=%s regressed=%v", res.Kind, res.Regressed())
	}
	res, err = DiffFiles(benchPath, benchPath, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "bench" || res.Regressed() {
		t.Fatalf("bench self-diff: kind=%s regressed=%v", res.Kind, res.Regressed())
	}
	res, err = DiffFiles(loadPath, loadPath, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "load" || res.Regressed() {
		t.Fatalf("load self-diff: kind=%s regressed=%v", res.Kind, res.Regressed())
	}
	if _, err := DiffFiles(repPath, benchPath, DiffOptions{}); err == nil {
		t.Fatal("mixed-kind diff accepted")
	}
	if _, err := DiffFiles(benchPath, loadPath, DiffOptions{}); err == nil {
		t.Fatal("bench-vs-load diff accepted")
	}
	if _, err := DiffFiles(filepath.Join(dir, "absent.json"), repPath, DiffOptions{}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestGoldenDiffTable(t *testing.T) {
	old := fixtureReport()
	bad := fixtureReport()
	bad.Runs[0].IPC = 1.0
	bad.Runs[1].EnergyJ["simd"] = 4.0e-4
	bad.Manifest.SimRateKIPS = 6000 // +20% improvement, within tolerance
	res := diffRows("report", reportRows(&old), reportRows(&bad), DiffOptions{})
	var buf bytes.Buffer
	if err := res.Format(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "diff_report.golden", buf.Bytes())
}
