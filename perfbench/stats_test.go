package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending, so quantile must sort a copy
	}
	return s
}

func TestQuantileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{100, 0.5, 50},
		{100, 0.9, 90},    // exactly ten samples beyond rank 90
		{1000, 0.99, 990}, // 0.99*1000 must not round up to rank 991
		{21, 0.5, 11},
	} {
		got, err := quantile(seq(tc.n), tc.q)
		if err != nil || got != tc.want {
			t.Errorf("quantile(1..%d, %g) = %g, %v; want %g", tc.n, tc.q, got, err, tc.want)
		}
	}
	s := seq(50)
	if _, err := quantile(s, 0.5); err != nil || s[0] != 50 {
		t.Errorf("quantile changed its input or failed: %v", err)
	}
}

func TestQuantileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct {
		n int
		q float64
	}{
		{100, 0.95}, // 5 beyond
		{999, 0.99}, // rank 990, 9 beyond
		{19, 0.5},   // rank 10, 9 beyond
		{0, 0.5},
		{100, 1},
		{100, 0},
	} {
		if v, err := quantile(seq(tc.n), tc.q); err == nil {
			t.Errorf("quantile(1..%d, %g) = %g, want refusal", tc.n, tc.q, v)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	parent := interval{0, 10}
	for _, tc := range []struct {
		name     string
		children []interval
		want     float64
	}{
		{"none", nil, 10},
		{"disjoint", []interval{{1, 2}, {4, 6}}, 7},
		{"overlapping siblings count once", []interval{{1, 4}, {3, 6}}, 5},
		{"nested child inside a sibling", []interval{{1, 6}, {2, 3}}, 5},
		{"child sticking out is clipped", []interval{{8, 12}, {-3, 1}}, 7},
		{"child outside", []interval{{11, 12}}, 10},
		{"full cover", []interval{{0, 5}, {5, 10}}, 0},
	} {
		if got := selfTime(parent, tc.children); !near(got, tc.want) {
			t.Errorf("%s: selfTime = %g, want %g", tc.name, got, tc.want)
		}
	}
}

func TestLayerTimesUseDirectChildren(t *testing.T) {
	spans := []span{
		{id: 1, name: "run", lo: 0, hi: 10},
		{id: 2, parent: 1, name: "engine.job", lo: 1, hi: 6},
		{id: 3, parent: 2, name: "hetsim.run", lo: 2, hi: 5},
		{id: 4, parent: 3, name: "inner", lo: 3, hi: 4},
		{id: 5, parent: 1, name: "engine.job", lo: 4, hi: 8},
	}
	total, self := layerTimes(spans)
	if !near(total["engine.job"], 9) || !near(self["engine.job"], 6) {
		t.Errorf("engine.job total %g self %g, want 9 and 6", total["engine.job"], self["engine.job"])
	}
	if !near(self["hetsim.run"], 2) {
		t.Errorf("hetsim.run self %g, want 2", self["hetsim.run"])
	}
	// The two jobs overlap on [4,6]; the root's self time counts that
	// stretch once, and the grandchild adds nothing outside its parent.
	if !near(self["run"], 3) {
		t.Errorf("run self %g, want 3", self["run"])
	}
}

func TestUnattributed(t *testing.T) {
	root := interval{0, 10}
	layers := []interval{{-1, 0.5}, {1, 3}, {2, 5}, {7, 8}, {9, 11}}
	// Covered: [0,0.5] + [1,5] + [7,8] + [9,10] = 6.5 of 10.
	if got := unattributed(root, layers); !near(got, 3.5) {
		t.Errorf("unattributed = %g, want 3.5", got)
	}
	spans := []span{{id: 1, name: "run", lo: 0, hi: 10}}
	for i, iv := range layers {
		spans = append(spans, span{id: int64(i + 2), parent: 1, name: "x", lo: iv.lo, hi: iv.hi})
	}
	if got := rootUnattributed(spans, 1); !near(got, 3.5) {
		t.Errorf("rootUnattributed = %g, want 3.5", got)
	}
	if got := unattributed(root, nil); got != 10 {
		t.Errorf("unattributed with no layer spans = %g, want 10", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics and
// workloads this program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s not in the program", w.Name)
		}
	}
	check := func(kind string, want map[string]string, names, units []string) {
		if len(names) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(names), len(want))
		}
		for i, n := range names {
			if u, ok := want[n]; !ok || u != units[i] {
				t.Errorf("%s metric %s: BENCHMARK.json unit %q, program %q (listed %v)", kind, n, units[i], u, ok)
			}
		}
	}
	var n, u []string
	for _, m := range b.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: bound %g better %q", m.Name, m.Bound, m.Better)
		}
	}
	check("end_to_end", endToEnd, n, u)
	n, u = nil, nil
	for _, m := range b.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("per_layer", perLayer, n, u)
	if !strings.HasPrefix(strings.Join(b.Command, " "), "bash perfbench/") {
		t.Errorf("command %v does not run the benchmark's script", b.Command)
	}
}
