package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetcore/internal/dist"
	"hetcore/internal/obs"
)

// benchRec builds a plausible bench record with the given CPU rate.
func benchRec(cpuRate float64) BenchRecord {
	return BenchRecord{
		Schema: obs.SchemaVersion, GoVersion: "go-test",
		CPUWorkload: "barnes", CPUInstructions: 300_000,
		CPUInstsPerSec: cpuRate,
		GPUKernel:      "MatrixMultiplication", GPUWaveInsts: 100_000,
		GPUWaveInstsPerSec: 2e6,
		SuiteRuns:          24, SuiteRunsPerSec: 10,
	}
}

func loadRec(rps, p99 float64) dist.LoadRecord {
	return dist.LoadRecord{
		Schema: dist.LoadSchemaVersion, GoVersion: "go-test",
		Mode: "closed", Concurrency: 8, Requests: 1000,
		RequestsPerSec: rps,
		LatencyP50MS:   1, LatencyP95MS: 2, LatencyP99MS: p99,
	}
}

func benchEntry(b BenchRecord, unixSec int64) HistoryEntry {
	return NewHistoryEntry(HistoryEntry{Bench: &b}, b.GoVersion, unixSec)
}

func loadEntry(l dist.LoadRecord, unixSec int64) HistoryEntry {
	return NewHistoryEntry(HistoryEntry{Load: &l}, l.GoVersion, unixSec)
}

// TestHistoryRoundTrip: append entries of both kinds, load them back in
// order, intact.
func TestHistoryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_history.jsonl")
	entries := []HistoryEntry{
		benchEntry(benchRec(1e6), 100),
		loadEntry(loadRec(500, 3), 200),
		benchEntry(benchRec(1.1e6), 300),
	}
	for _, e := range entries {
		if err := AppendHistory(path, e); err != nil {
			t.Fatal(err)
		}
	}
	got, err := LoadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("loaded %d entries, want %d", len(got), len(entries))
	}
	for i, e := range got {
		if e.Kind != entries[i].Kind || e.UnixSec != entries[i].UnixSec {
			t.Errorf("entry %d = %s@%d, want %s@%d",
				i, e.Kind, e.UnixSec, entries[i].Kind, entries[i].UnixSec)
		}
	}
	if got[0].Bench == nil || got[0].Bench.CPUInstsPerSec != 1e6 {
		t.Errorf("bench payload lost: %+v", got[0].Bench)
	}
	if got[1].Load == nil || got[1].Load.RequestsPerSec != 500 {
		t.Errorf("load payload lost: %+v", got[1].Load)
	}
}

func TestAppendHistoryRejectsInvalid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.jsonl")
	bad := HistoryEntry{Schema: TrendSchemaVersion, Kind: "bench"} // no record
	if err := AppendHistory(path, bad); err == nil {
		t.Error("bench entry without record accepted")
	}
	bad = HistoryEntry{Schema: "nope", Kind: "bench"}
	if err := AppendHistory(path, bad); err == nil {
		t.Error("wrong schema accepted")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("invalid append created the history file")
	}
}

func TestLoadHistoryRejectsMalformedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.jsonl")
	if err := os.WriteFile(path, []byte("{broken\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadHistory(path)
	if err == nil || !strings.Contains(err.Error(), ":1:") {
		t.Errorf("malformed line error = %v, want line-numbered", err)
	}
}

// TestTrendSingleEntryOK: one entry per kind has nothing to compare and
// must pass trivially with Baseline 0.
func TestTrendSingleEntryOK(t *testing.T) {
	res := Trend([]HistoryEntry{benchEntry(benchRec(1e6), 1)}, 0, DiffOptions{})
	if res.Regressed() {
		t.Error("single entry regressed")
	}
	if len(res.Kinds) != 1 || res.Kinds[0].Baseline != 0 {
		t.Errorf("kinds = %+v, want one bench kind with baseline 0", res.Kinds)
	}
	var buf strings.Builder
	if err := res.Format(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "nothing to compare") {
		t.Errorf("format output:\n%s", buf.String())
	}
}

// TestTrendDirectionAware: the newest entry regresses only when a
// higher-better rate drops beyond RateTol — getting faster is fine, and
// noise inside the tolerance is fine.
func TestTrendDirectionAware(t *testing.T) {
	hist := func(newestRate float64) []HistoryEntry {
		return []HistoryEntry{
			benchEntry(benchRec(1.00e6), 1),
			benchEntry(benchRec(1.02e6), 2),
			benchEntry(benchRec(0.98e6), 3),
			benchEntry(benchRec(newestRate), 4),
		}
	}
	opts := DiffOptions{RateTol: 0.25}
	if res := Trend(hist(2e6), 0, opts); res.Regressed() {
		t.Error("a 2x speedup regressed")
	}
	if res := Trend(hist(0.9e6), 0, opts); res.Regressed() {
		t.Error("a 10% dip regressed despite RateTol 25%")
	}
	res := Trend(hist(0.5e6), 0, opts)
	if !res.Regressed() {
		t.Fatal("a 50% slowdown passed")
	}
	if res.Kinds[0].Baseline != 3 {
		t.Errorf("baseline = %d prior entries, want 3", res.Kinds[0].Baseline)
	}
}

// TestTrendDeterministicCountMismatch: CPU instruction counts are
// deterministic, so any drift beyond RelTol regresses in either
// direction.
func TestTrendDeterministicCountMismatch(t *testing.T) {
	newest := benchRec(1e6)
	newest.CPUInstructions = 300_500 // +0.17% on a deterministic count
	hist := []HistoryEntry{
		benchEntry(benchRec(1e6), 1),
		benchEntry(newest, 2),
	}
	if res := Trend(hist, 0, DiffOptions{}); !res.Regressed() {
		t.Error("deterministic instruction-count drift passed")
	}
}

// TestTrendWindow: the window bounds how many prior entries feed the
// median, so ancient history ages out.
func TestTrendWindow(t *testing.T) {
	// Old slow entries, then a faster regime; the newest matches the
	// recent regime but regresses against the overall median only if the
	// old entries are included... so windowing changes the verdict's
	// baseline size, which is what we assert.
	hist := []HistoryEntry{
		benchEntry(benchRec(1e6), 1),
		benchEntry(benchRec(1e6), 2),
		benchEntry(benchRec(1e6), 3),
		benchEntry(benchRec(1e6), 4),
		benchEntry(benchRec(1e6), 5),
	}
	res := Trend(hist, 2, DiffOptions{})
	if res.Kinds[0].Baseline != 2 {
		t.Errorf("windowed baseline = %d, want 2", res.Kinds[0].Baseline)
	}
	res = Trend(hist, 0, DiffOptions{})
	if res.Kinds[0].Baseline != 4 {
		t.Errorf("unwindowed baseline = %d, want 4", res.Kinds[0].Baseline)
	}
}

// TestTrendLoadKind: load entries compare with the load rows — latency
// is lower-better, so a p99 collapse upward regresses.
func TestTrendLoadKind(t *testing.T) {
	good := []HistoryEntry{
		loadEntry(loadRec(500, 3), 1),
		loadEntry(loadRec(520, 2.5), 2),
	}
	if res := Trend(good, 0, DiffOptions{RateTol: 0.5}); res.Regressed() {
		t.Error("healthy load trend regressed")
	}
	bad := []HistoryEntry{
		loadEntry(loadRec(500, 3), 1),
		loadEntry(loadRec(510, 30), 2), // p99 blew up 10x
	}
	if res := Trend(bad, 0, DiffOptions{RateTol: 0.5}); !res.Regressed() {
		t.Error("10x p99 latency blow-up passed")
	}
}

// TestTrendMixedKinds: a history holding both kinds produces one verdict
// per kind, sorted.
func TestTrendMixedKinds(t *testing.T) {
	hist := []HistoryEntry{
		benchEntry(benchRec(1e6), 1),
		loadEntry(loadRec(500, 3), 2),
		benchEntry(benchRec(1e6), 3),
		loadEntry(loadRec(500, 3), 4),
	}
	res := Trend(hist, 0, DiffOptions{})
	if len(res.Kinds) != 2 || res.Kinds[0].Kind != "bench" || res.Kinds[1].Kind != "load" {
		t.Fatalf("kinds = %+v, want [bench load]", res.Kinds)
	}
	for _, k := range res.Kinds {
		if k.Baseline != 1 {
			t.Errorf("kind %s baseline = %d, want 1", k.Kind, k.Baseline)
		}
	}
}

// TestTrendMedianRobustToOutlier: one slow historical run must not drag
// the median baseline down — that is the reason trend uses a median and
// not the previous entry.
func TestTrendMedianRobustToOutlier(t *testing.T) {
	hist := []HistoryEntry{
		benchEntry(benchRec(1e6), 1),
		benchEntry(benchRec(0.1e6), 2), // one starved CI run
		benchEntry(benchRec(1e6), 3),
		benchEntry(benchRec(0.5e6), 4), // genuine slowdown
	}
	if res := Trend(hist, 0, DiffOptions{RateTol: 0.25}); !res.Regressed() {
		t.Error("slowdown hidden by an outlier in the history")
	}
}
