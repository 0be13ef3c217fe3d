package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"hetcore/internal/prof"
)

// SchemaVersion identifies the run-record / report JSON schema.
const SchemaVersion = "hetcore.obs/v1"

// RunRecord is the structured record of one simulation run: what was
// run, what it measured, and where its cycles went. All simulation
// fields are deterministic for a fixed (config, workload, seed);
// WallSeconds and SimRateKIPS describe the host and are excluded by
// Canonical for byte-identity comparisons.
type RunRecord struct {
	Schema     string `json:"schema"`
	Kind       string `json:"kind"` // "cpu", "gpu" or "cmp"
	Experiment string `json:"experiment,omitempty"`
	Config     string `json:"config"`
	Workload   string `json:"workload"`
	// Variant is the run's engine-key variant, such as a fig14 DVFS
	// operating point: it tells apart runs of one config and workload.
	Variant string `json:"variant,omitempty"`
	Seed    uint64 `json:"seed"`

	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"` // critical-path cycles (slowest core)
	CoreCycles   uint64  `json:"core_cycles"`
	TimeSec      float64 `json:"time_sec"`
	IPC          float64 `json:"ipc,omitempty"`

	// CycleAttribution bins every simulated core cycle (summed over
	// cores/CUs) into one top-down bucket; values sum to CoreCycles.
	CycleAttribution map[string]uint64 `json:"cycle_attribution,omitempty"`

	// EnergyJ is the per-component energy summary in joules.
	EnergyJ map[string]float64 `json:"energy_j,omitempty"`

	// Extra holds model-specific scalars (hit rates, mispredict rate...).
	Extra map[string]float64 `json:"extra,omitempty"`

	// Host-timing fields (not deterministic).
	WallSeconds float64 `json:"wall_seconds"`
	SimRateKIPS float64 `json:"sim_rate_kips"`
}

// AttributionTotal returns the sum of the cycle-attribution buckets.
func (r RunRecord) AttributionTotal() uint64 {
	var t uint64
	for _, v := range r.CycleAttribution {
		t += v
	}
	return t
}

// Canonical returns a copy with the host-timing fields zeroed, so two
// runs of the same experiment with the same seed marshal to identical
// bytes.
func (r RunRecord) Canonical() RunRecord {
	r.WallSeconds = 0
	r.SimRateKIPS = 0
	return r
}

// CanonicalRecords maps Canonical over a record slice and sorts it into
// the canonical order, so the result is byte-stable whatever order the
// worker pool completed the runs in.
func CanonicalRecords(recs []RunRecord) []RunRecord {
	out := make([]RunRecord, len(recs))
	for i, r := range recs {
		out[i] = r.Canonical()
	}
	SortRecords(out)
	return out
}

// SortRecords orders records by (experiment, kind, config, workload,
// variant, seed) — the canonical order for reports. Concurrent run plans
// append records in completion order; sorting restores a deterministic
// layout.
func SortRecords(recs []RunRecord) {
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		switch {
		case a.Experiment != b.Experiment:
			return a.Experiment < b.Experiment
		case a.Kind != b.Kind:
			return a.Kind < b.Kind
		case a.Config != b.Config:
			return a.Config < b.Config
		case a.Workload != b.Workload:
			return a.Workload < b.Workload
		case a.Variant != b.Variant:
			return a.Variant < b.Variant
		default:
			return a.Seed < b.Seed
		}
	})
}

// RecordSink accumulates run records; a nil sink discards them.
type RecordSink struct {
	mu      sync.Mutex
	records []RunRecord
}

// Add appends a record.
func (s *RecordSink) Add(r RunRecord) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.records = append(s.records, r)
	s.mu.Unlock()
}

// Records returns a copy of the accumulated records.
func (s *RecordSink) Records() []RunRecord {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]RunRecord(nil), s.records...)
}

// Len returns the number of accumulated records.
func (s *RecordSink) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.records)
}

// Manifest describes one harness invocation for the report header.
type Manifest struct {
	Schema      string   `json:"schema"`
	Command     []string `json:"command,omitempty"`
	GoVersion   string   `json:"go_version,omitempty"`
	Experiments []string `json:"experiments,omitempty"`
	Seed        uint64   `json:"seed"`
	Runs        int      `json:"runs"`
	WallSeconds float64  `json:"wall_seconds"`
	SimRateKIPS float64  `json:"sim_rate_kips"` // aggregate instructions/wall-ms

	// Run-plan engine stats: where each job of the invocation came
	// from. EngineJobsRun counts local simulations; cache hits split
	// into in-memory (same process), disk (persistent -cache-dir) and
	// remote (-remote workers). All zero when no engine ran.
	EngineJobsRun    uint64 `json:"engine_jobs_run"`
	EngineCacheHits  uint64 `json:"engine_cache_hits"`
	EngineDiskHits   uint64 `json:"engine_disk_hits"`
	EngineRemoteJobs uint64 `json:"engine_remote_jobs"`

	// SoC design-space search stats: how many core mixes fit the budget
	// and were evaluated vs rejected by the footprint sum alone. Zero
	// (and omitted) when no SoC search ran.
	SoCConfigsEvaluated  uint64 `json:"soc_configs_evaluated,omitempty"`
	SoCConfigsOverBudget uint64 `json:"soc_configs_over_budget,omitempty"`

	// StageProfile is the sampled host-cost attribution per simulated
	// pipeline stage (internal/prof), present when -stage-prof was set.
	StageProfile []prof.StageCost `json:"stage_profile,omitempty"`
}

// Report is the -metrics-out payload: manifest, metrics snapshot and the
// per-run records.
type Report struct {
	Manifest Manifest    `json:"manifest"`
	Metrics  Snapshot    `json:"metrics"`
	Runs     []RunRecord `json:"runs"`
}

// WriteJSON writes the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("obs: encoding report: %w", err)
	}
	return nil
}

// FormatAttribution renders a cycle-attribution map as an aligned
// fraction table (one line per bucket, descending share).
func FormatAttribution(w io.Writer, attr map[string]uint64) error {
	total := uint64(0)
	keys := make([]string, 0, len(attr))
	for k, v := range attr {
		keys = append(keys, k)
		total += v
	}
	sort.Slice(keys, func(i, j int) bool {
		if attr[keys[i]] != attr[keys[j]] {
			return attr[keys[i]] > attr[keys[j]]
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		frac := 0.0
		if total > 0 {
			frac = float64(attr[k]) / float64(total)
		}
		if _, err := fmt.Fprintf(w, "%-20s %12d  %6.2f%%\n", k, attr[k], 100*frac); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-20s %12d\n", "total", total)
	return err
}
