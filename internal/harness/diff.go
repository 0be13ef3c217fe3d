package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"hetcore/internal/dist"
	"hetcore/internal/obs"
	"hetcore/internal/traffic"
)

// This file is the cross-run regression gate: `hetcore diff` loads two
// payloads of one kind — -metrics-out reports (schema hetcore.obs/v1),
// BENCH_sim_rate.json bench records, BENCH_load.json load records or
// traffic reports — maps each to its metric rows, computes per-metric
// deltas against configurable thresholds, renders a readable table and
// reports whether anything regressed. scripts/ci.sh runs it against the
// committed baselines so sim-rate, paper-metric or serving-latency drift
// fails CI.

// DiffOptions sets the regression thresholds. Deterministic simulation
// metrics (IPC, time, energy, instruction counts — fixed for a given
// config/workload/seed) use RelTol; host-timing metrics (simulation
// rates, wall seconds) vary run to run and machine to machine and use
// the much looser RateTol.
type DiffOptions struct {
	// RelTol is the relative tolerance for deterministic metrics
	// (fraction; 0.001 = 0.1%). Any drift beyond it, in either
	// direction for direction-less metrics, is flagged.
	RelTol float64
	// RateTol is the relative tolerance for host-timing metrics
	// (fraction; 0.25 = a 25% slowdown fails).
	RateTol float64
}

// withDefaults fills unset thresholds.
func (o DiffOptions) withDefaults() DiffOptions {
	if o.RelTol == 0 {
		o.RelTol = 0.001
	}
	if o.RateTol == 0 {
		o.RateTol = 0.25
	}
	return o
}

// diffDirection says which way a metric may move without regressing.
type diffDirection int

const (
	higherBetter diffDirection = iota
	lowerBetter
	exactMatch // deterministic: any drift beyond tolerance regresses
)

// DiffRow is one compared metric.
type DiffRow struct {
	Metric string  `json:"metric"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	// DeltaPct is 100*(new-old)/old (0 when old == 0).
	DeltaPct float64 `json:"delta_pct"`
	// Status is "ok", "improved", or "REGRESSED".
	Status string `json:"status"`
}

// DiffResult is the full comparison.
type DiffResult struct {
	Kind string    `json:"kind"` // "report", "bench", "load" or "traffic"
	Rows []DiffRow `json:"rows"`
}

// Regressed reports whether any metric regressed.
func (r DiffResult) Regressed() bool {
	for _, row := range r.Rows {
		if row.Status == "REGRESSED" {
			return true
		}
	}
	return false
}

// Regressions returns the regressed rows.
func (r DiffResult) Regressions() []DiffRow {
	var out []DiffRow
	for _, row := range r.Rows {
		if row.Status == "REGRESSED" {
			out = append(out, row)
		}
	}
	return out
}

// Format renders the comparison as an aligned table.
func (r DiffResult) Format(w io.Writer) error {
	width := len("metric")
	for _, row := range r.Rows {
		if len(row.Metric) > width {
			width = len(row.Metric)
		}
	}
	if _, err := fmt.Fprintf(w, "%-*s %14s %14s %9s  %s\n",
		width, "metric", "old", "new", "delta", "status"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%-*s %14s %14s %8.2f%%  %s\n",
			width, row.Metric, FormatMetric(row.Old), FormatMetric(row.New),
			row.DeltaPct, row.Status); err != nil {
			return err
		}
	}
	reg := len(r.Regressions())
	verdict := "OK"
	if reg > 0 {
		verdict = fmt.Sprintf("REGRESSED (%d metric(s))", reg)
	}
	_, err := fmt.Fprintf(w, "-- %d metric(s) compared: %s\n", len(r.Rows), verdict)
	return err
}

// FormatRegressions prints one line per regressed metric, each prefixed
// with prefix: the quiet (-q) form of Format.
func (r DiffResult) FormatRegressions(w io.Writer, prefix string) error {
	for _, row := range r.Regressions() {
		if _, err := fmt.Fprintf(w, "%s%s: %s -> %s (%.2f%%) REGRESSED\n", prefix, row.Metric,
			FormatMetric(row.Old), FormatMetric(row.New), row.DeltaPct); err != nil {
			return err
		}
	}
	return nil
}

// FormatMetric formats a metric value compactly for the diff table.
func FormatMetric(v float64) string {
	av := math.Abs(v)
	switch {
	case v == math.Trunc(v) && av < 1e9:
		return fmt.Sprintf("%.0f", v)
	case av >= 1e6 || (av < 1e-3 && av > 0):
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// classify scores one metric movement.
func classify(old, new float64, dir diffDirection, tol float64) (deltaPct float64, status string) {
	if old != 0 {
		deltaPct = 100 * (new - old) / old
	}
	var rel float64
	switch {
	case old == 0 && new == 0:
		return 0, "ok"
	case old == 0:
		rel = math.Inf(1)
		if new < 0 {
			rel = math.Inf(-1)
		}
	default:
		rel = (new - old) / math.Abs(old)
	}
	switch dir {
	case higherBetter:
		if rel < -tol {
			return deltaPct, "REGRESSED"
		}
		if rel > tol {
			return deltaPct, "improved"
		}
	case lowerBetter:
		if rel > tol {
			return deltaPct, "REGRESSED"
		}
		if rel < -tol {
			return deltaPct, "improved"
		}
	case exactMatch:
		if math.Abs(rel) > tol {
			return deltaPct, "REGRESSED"
		}
	}
	return deltaPct, "ok"
}

// metricRow is one named number a payload exposes. Every kind reduces to
// rows, so one diff and one trend median serve all kinds. Rows match
// across records by group (a run or scenario; "" for record-wide
// metrics) and name; label is the printed prefix of a grouped metric.
type metricRow struct {
	group, label, name string
	value              float64
	better             diffDirection
	host               bool // host timing: compared at RateTol, otherwise RelTol
	count              bool // integer-valued: a trend median truncates it
}

type rowKey struct{ group, name string }

// diffRows compares two records' rows in the old record's order. A group
// only in old regresses as <label>.missing; a group only in new is noted
// as <label>.new. A record-wide metric missing on either side is skipped,
// so new bench records still diff against baselines that predate the
// suite fields.
func diffRows(kind string, old, new []metricRow, opts DiffOptions) DiffResult {
	opts = opts.withDefaults()
	oldGroups, newGroups := map[string]bool{"": true}, map[string]bool{"": true}
	newRows := make(map[rowKey]metricRow, len(new))
	for _, r := range old {
		oldGroups[r.group] = true
	}
	for _, r := range new {
		newGroups[r.group] = true
		newRows[rowKey{r.group, r.name}] = r
	}
	res := DiffResult{Kind: kind}
	for i, o := range old {
		n, ok := newRows[rowKey{o.group, o.name}]
		switch {
		case !newGroups[o.group]:
			if i == 0 || old[i-1].group != o.group {
				res.Rows = append(res.Rows, DiffRow{Metric: o.label + ".missing",
					Old: 1, New: 0, DeltaPct: -100, Status: "REGRESSED"})
			}
		case ok:
			tol, metric := opts.RelTol, o.name
			if o.host {
				tol = opts.RateTol
			}
			if o.group != "" {
				metric = o.label + "." + o.name
			}
			d, st := classify(o.value, n.value, o.better, tol)
			res.Rows = append(res.Rows, DiffRow{Metric: metric, Old: o.value, New: n.value, DeltaPct: d, Status: st})
		}
	}
	for i, n := range new {
		if !oldGroups[n.group] && (i == 0 || new[i-1].group != n.group) {
			res.Rows = append(res.Rows, DiffRow{Metric: n.label + ".new", Old: 0, New: 1, Status: "ok"})
		}
	}
	return res
}

// recordKind is one payload kind. recordKinds is the only code that
// tells kinds apart — sniffing, decoding, history entries and trend all
// read it — so adding a kind is one entry there plus one rows function.
type recordKind struct {
	name   string // DiffResult.Kind and HistoryEntry.Kind
	noun   string
	schema string // the schema stamp its payloads carry ("" = unchecked)
	key    string // top-level JSON key that identifies it ("" = its schema stamp does)
	decode func(raw []byte) ([]metricRow, error)
	// history reads the kind's HistoryEntry field (false when unset);
	// nil for kinds the history never holds.
	history func(e *HistoryEntry) ([]metricRow, bool)
}

var recordKinds = []recordKind{
	newKind("report", "metrics report", obs.SchemaVersion, "manifest", reportRows, checkReport, nil),
	newKind("bench", "bench record", "", "cpu_insts_per_sec", benchRows,
		nil, func(e *HistoryEntry) *BenchRecord { return e.Bench }),
	newKind("load", "load record", dist.LoadSchemaVersion, "requests_per_sec", loadRows,
		func(l *dist.LoadRecord) error { return checkSchema(l.Schema, dist.LoadSchemaVersion) },
		func(e *HistoryEntry) *dist.LoadRecord { return e.Load }),
	newKind("traffic", "traffic report", traffic.SchemaVersion, "", trafficRows,
		(*traffic.Report).Validate, func(e *HistoryEntry) *traffic.Report { return e.Traffic }),
}

// newKind builds the table entry for payloads of type T: check validates
// a decoded payload (nil = none), field is T's HistoryEntry field (nil =
// not a history kind).
func newKind[T any](name, noun, schema, key string, rows func(*T) []metricRow,
	check func(*T) error, field func(*HistoryEntry) *T) recordKind {
	k := recordKind{name: name, noun: noun, schema: schema, key: key}
	k.decode = func(raw []byte) ([]metricRow, error) {
		p := new(T)
		if err := json.Unmarshal(raw, p); err != nil {
			return nil, fmt.Errorf("decoding %s: %w", noun, err)
		}
		if check != nil {
			if err := check(p); err != nil {
				return nil, err
			}
		}
		return rows(p), nil
	}
	if field != nil {
		k.history = func(e *HistoryEntry) ([]metricRow, bool) {
			p := field(e)
			if p == nil {
				return nil, false
			}
			return rows(p), true
		}
	}
	return k
}

func checkSchema(got, want string) error {
	if got != want {
		return fmt.Errorf("schema %q, want %q", got, want)
	}
	return nil
}

// desc names the kind with its schema, so a mismatched-kind diff can say
// what each side actually is.
func (k *recordKind) desc() string {
	if k.schema == "" {
		return k.noun
	}
	return fmt.Sprintf("%s (%s)", k.noun, k.schema)
}

// loadDiffFile reads path and decodes it as the kind its JSON shows. A
// schema stamp that names a kind outranks the identifying keys.
func loadDiffFile(path string) (*recordKind, []metricRow, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(raw, &probe); err != nil {
		return nil, nil, fmt.Errorf("%s: not a JSON object: %w", path, err)
	}
	var schema string
	_ = json.Unmarshal(probe["schema"], &schema)
	var kind *recordKind
	var known []string
	for i, k := range recordKinds {
		marker := k.key
		switch {
		case k.key == "":
			marker = "schema " + k.schema
			if schema == k.schema {
				kind = &recordKinds[i]
			}
		case kind == nil && probe[k.key] != nil:
			kind = &recordKinds[i]
		}
		known = append(known, fmt.Sprintf("%s (%s)", k.noun, marker))
	}
	if kind == nil {
		return nil, nil, fmt.Errorf("%s: not a %s or %s", path,
			strings.Join(known[:len(known)-1], ", "), known[len(known)-1])
	}
	rows, err := kind.decode(raw)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return kind, rows, nil
}

// DiffFiles loads and compares two payload files of the same kind.
func DiffFiles(oldPath, newPath string, opts DiffOptions) (DiffResult, error) {
	ka, a, err := loadDiffFile(oldPath)
	if err != nil {
		return DiffResult{}, err
	}
	kb, b, err := loadDiffFile(newPath)
	if err != nil {
		return DiffResult{}, err
	}
	if ka != kb {
		return DiffResult{}, fmt.Errorf("cannot diff payloads of different kinds: %s is a %s, %s is a %s",
			oldPath, ka.desc(), newPath, kb.desc())
	}
	return diffRows(ka.name, a, b, opts), nil
}

// checkReport validates a -metrics-out report: its schema stamp, and
// that no two runs share a run key, since the diff matches runs by key
// and a duplicate would hide all but one of them.
func checkReport(r *obs.Report) error {
	if err := checkSchema(r.Manifest.Schema, obs.SchemaVersion); err != nil {
		return err
	}
	seen := make(map[string]bool, len(r.Runs))
	for _, run := range r.Runs {
		k := runKey(run)
		if seen[k] {
			return fmt.Errorf("two runs share the key %s", k)
		}
		seen[k] = true
	}
	return nil
}

// reportRows maps a -metrics-out report that checkReport accepted: the
// aggregate sim rate (host timing) and run count, then for every run, in
// sorted run-key order, the deterministic paper metrics.
func reportRows(r *obs.Report) []metricRow {
	rows := []metricRow{
		{name: "manifest.sim_rate_kips", value: r.Manifest.SimRateKIPS, better: higherBetter, host: true},
		{name: "manifest.runs", value: float64(r.Manifest.Runs), better: higherBetter, count: true},
	}
	runs := append([]obs.RunRecord(nil), r.Runs...)
	sort.Slice(runs, func(i, j int) bool { return runKey(runs[i]) < runKey(runs[j]) })
	for _, run := range runs {
		k := runKey(run)
		rows = append(rows,
			metricRow{group: k, label: k, name: "ipc", value: run.IPC, better: higherBetter},
			metricRow{group: k, label: k, name: "time_sec", value: run.TimeSec, better: lowerBetter},
			metricRow{group: k, label: k, name: "energy_j", value: energyTotal(run), better: lowerBetter},
			metricRow{group: k, label: k, name: "instructions", value: float64(run.Instructions),
				better: exactMatch, count: true})
	}
	return rows
}

// benchRows maps a simulation-rate record: host-timing rates where only
// slowdowns regress, and deterministic instruction counts. Records that
// predate the full-suite figures (run-plan engine) have no suite rows.
func benchRows(b *BenchRecord) []metricRow {
	rows := []metricRow{
		{name: "cpu_insts_per_sec", value: b.CPUInstsPerSec, better: higherBetter, host: true},
		{name: "gpu_wave_insts_per_sec", value: b.GPUWaveInstsPerSec, better: higherBetter, host: true},
		{name: "cpu_instructions", value: float64(b.CPUInstructions), better: exactMatch, count: true},
		{name: "gpu_wave_insts", value: float64(b.GPUWaveInsts), better: exactMatch, count: true},
	}
	if b.SuiteRuns > 0 {
		rows = append(rows,
			metricRow{name: "suite_runs", value: float64(b.SuiteRuns), better: exactMatch, count: true},
			metricRow{name: "suite_runs_per_sec", value: b.SuiteRunsPerSec, better: higherBetter, host: true})
	}
	return rows
}

// loadRows maps a load-test record: throughput may only fall and latency
// quantiles only rise by more than RateTol. The error rate is a
// correctness signal and uses the strict RelTol, so a zero-error
// baseline regresses on the first error.
func loadRows(l *dist.LoadRecord) []metricRow {
	return []metricRow{
		{name: "requests_per_sec", value: l.RequestsPerSec, better: higherBetter, host: true},
		{name: "latency_p50_ms", value: l.LatencyP50MS, better: lowerBetter, host: true},
		{name: "latency_p95_ms", value: l.LatencyP95MS, better: lowerBetter, host: true},
		{name: "latency_p99_ms", value: l.LatencyP99MS, better: lowerBetter, host: true},
		{name: "error_rate", value: l.ErrorRate, better: lowerBetter},
	}
}

// trafficRows maps a traffic report scenario by scenario, in report
// order, each labelled with the trace it ran. The simulation is
// deterministic, so everything uses RelTol: energy per request, latency
// quantiles and SLO accounting may only fall, and the offered request
// count must match exactly.
func trafficRows(r *traffic.Report) []metricRow {
	var rows []metricRow
	for _, s := range r.Scenarios {
		row := func(name string, v float64, better diffDirection, count bool) metricRow {
			return metricRow{group: s.Scenario, label: s.Scenario + "/" + s.Trace,
				name: name, value: v, better: better, count: count}
		}
		rows = append(rows,
			row("requests", float64(s.Requests), exactMatch, true),
			row("energy_per_req_j", s.EnergyPerReqJ, lowerBetter, false),
			row("p50_sec", s.P50Sec, lowerBetter, false),
			row("p99_sec", s.P99Sec, lowerBetter, false),
			row("slo_violations", float64(s.SLOViolations), lowerBetter, true),
			row("deadline_misses", float64(s.DeadlineMisses), lowerBetter, true))
	}
	return rows
}

// runKey identifies a run record across two reports.
func runKey(r obs.RunRecord) string {
	k := r.Kind + "/" + r.Config + "/" + r.Workload
	if r.Experiment != "" {
		k = r.Experiment + "/" + k
	}
	if r.Variant != "" {
		k += "/" + r.Variant
	}
	return k
}

// energyTotal sums a record's per-component energy map.
func energyTotal(r obs.RunRecord) float64 {
	t := 0.0
	for _, v := range r.EnergyJ {
		t += v
	}
	return t
}
