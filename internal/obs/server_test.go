package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// newTestServer starts a server on an ephemeral port over a populated
// observer and registers cleanup.
func newTestServer(t *testing.T) (*Server, *Observer) {
	t.Helper()
	o := &Observer{
		Metrics:  NewRegistry(),
		Records:  &RecordSink{},
		Series:   NewSeriesSet(0),
		Events:   NewEventLog(0),
		Progress: NewProgress(io.Discard, 0),
	}
	o.SetPhase("fig7")
	o.Reg().Counter("runs_total").Add(3)
	o.Reg().Gauge("governor.last_freq_ghz").Set(2.4)
	o.Reg().Histogram("ipc", []float64{0.5, 1, 2}).Observe(0.8)
	o.TimeSeries().Series("cpu.test.ipc").Append(1, 1.5)
	o.AddEvent(Event{T: 1, Cat: "governor", Name: "governor.decision",
		Args: map[string]float64{"freq_ghz": 2.4}})
	o.Prog().AddTarget(100)
	o.Prog().Add(40)

	s, err := StartServer("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, o
}

// get fetches a path and returns body + content type.
func get(t *testing.T, s *Server, path string) (string, string) {
	t.Helper()
	resp, err := http.Get(s.URL() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestServerEndpoints(t *testing.T) {
	s, _ := newTestServer(t)

	if s.Addr() == "" || !strings.HasPrefix(s.URL(), "http://") {
		t.Fatalf("bad addr/url: %q / %q", s.Addr(), s.URL())
	}

	t.Run("index", func(t *testing.T) {
		body, ct := get(t, s, "/")
		if !strings.Contains(ct, "text/html") {
			t.Fatalf("content type = %q", ct)
		}
		if !strings.Contains(body, "<html") || !strings.Contains(body, "hetcore") {
			t.Fatalf("dashboard HTML missing expected markers")
		}
		// The header strip surfaces the engine serving counters the
		// report manifest records.
		for _, marker := range []string{"engine.jobs_total", "engine.cache_hits",
			"engine.disk_hits", "engine.remote_jobs"} {
			if !strings.Contains(body, marker) {
				t.Errorf("dashboard does not read counter %s", marker)
			}
		}
	})

	t.Run("metrics.json", func(t *testing.T) {
		body, ct := get(t, s, "/metrics.json")
		if !strings.Contains(ct, "application/json") {
			t.Fatalf("content type = %q", ct)
		}
		var st ServerStatus
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("undecodable status: %v", err)
		}
		if st.Schema != SchemaVersion {
			t.Fatalf("schema = %q, want %q", st.Schema, SchemaVersion)
		}
		if st.Phase != "fig7" {
			t.Fatalf("phase = %q, want fig7", st.Phase)
		}
		if st.Progress.DoneInstructions != 40 || st.Progress.TargetInstructions != 100 {
			t.Fatalf("progress = %+v, want 40/100", st.Progress)
		}
		if st.Metrics.Counters["runs_total"] != 3 {
			t.Fatalf("counters = %v", st.Metrics.Counters)
		}
	})

	t.Run("series", func(t *testing.T) {
		body, _ := get(t, s, "/series")
		var series map[string]SeriesSnapshot
		if err := json.Unmarshal([]byte(body), &series); err != nil {
			t.Fatalf("undecodable series: %v", err)
		}
		snap, ok := series["cpu.test.ipc"]
		if !ok || len(snap.Points) != 1 || snap.Points[0].V != 1.5 {
			t.Fatalf("series payload = %v", series)
		}
	})

	t.Run("events", func(t *testing.T) {
		body, _ := get(t, s, "/events")
		var events struct {
			Total  uint64  `json:"total"`
			Events []Event `json:"events"`
		}
		if err := json.Unmarshal([]byte(body), &events); err != nil {
			t.Fatalf("undecodable events: %v", err)
		}
		if events.Total != 1 || len(events.Events) != 1 ||
			events.Events[0].Name != "governor.decision" {
			t.Fatalf("events payload = %+v", events)
		}
	})

	t.Run("prometheus", func(t *testing.T) {
		body, ct := get(t, s, "/metrics")
		if !strings.Contains(ct, "text/plain") {
			t.Fatalf("content type = %q", ct)
		}
		for _, want := range []string{
			"# TYPE hetcore_runs_total counter",
			"hetcore_runs_total 3",
			"# TYPE hetcore_governor_last_freq_ghz gauge",
			"hetcore_governor_last_freq_ghz 2.4",
			"# TYPE hetcore_ipc histogram",
			`hetcore_ipc_bucket{le="0.5"} 0`,
			`hetcore_ipc_bucket{le="1"} 1`,
			`hetcore_ipc_bucket{le="+Inf"} 1`,
			"hetcore_ipc_sum 0.8",
			"hetcore_ipc_count 1",
		} {
			if !strings.Contains(body, want) {
				t.Fatalf("prometheus output missing %q in:\n%s", want, body)
			}
		}
	})

	t.Run("not found", func(t *testing.T) {
		resp, err := http.Get(s.URL() + "/nope")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", resp.StatusCode)
		}
	})
}

func TestServerNilSafe(t *testing.T) {
	var s *Server
	if s.Addr() != "" || s.URL() != "" {
		t.Fatal("nil server returned an address")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("nil close: %v", err)
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"runs_total":          "hetcore_runs_total",
		"cpu.fig7.ipc":        "hetcore_cpu_fig7_ipc",
		"weird-metric/2":      "hetcore_weird_metric_2",
		"governor.last_watts": "hetcore_governor_last_watts",
	} {
		if got := promName(in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestServerDropsStalledHeader: a client that sends part of a request
// header and then stalls has its connection closed once the header
// timeout passes.
func TestServerDropsStalledHeader(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond
	s, err := StartServer("127.0.0.1:0", &Observer{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics.json HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection with a stalled header not closed: %v", err)
	}
}
