package obs

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"sort"
	"strings"
	"time"

	"hetcore/internal/prof"
)

// The embedded dashboard: a single self-contained page (inline CSS/JS,
// inline-SVG sparklines, 2 s auto-refresh) served at /. It reads the
// three JSON endpoints and renders sweep progress, per-run IPC/power
// tracks and the heartbeat rate.
//
//go:embed dashboard.html
var dashboardHTML []byte

// Server exposes an Observer's live state over HTTP using only the
// standard library:
//
//	/              the embedded HTML dashboard
//	/metrics.json  status + registry snapshot (JSON)
//	/metrics       Prometheus text exposition
//	/series        time-series snapshot (JSON)
//	/events        event log (JSON)
//	/debug/pprof/  net/http/pprof profiling endpoints
//
// All handlers read point-in-time snapshots under the instruments' own
// locks, so serving never blocks the simulation for more than a copy.
type Server struct {
	obs   *Observer
	ln    net.Listener
	srv   *http.Server
	start time.Time
}

// ServerStatus is the /metrics.json payload.
type ServerStatus struct {
	Schema        string         `json:"schema"`
	Phase         string         `json:"phase"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Runtime       RuntimeStats   `json:"runtime"`
	Progress      ProgressStatus `json:"progress"`
	Metrics       Snapshot       `json:"metrics"`

	// StageProfile is the sampled host-cost stage attribution so far
	// (present only when an internal/prof collector is armed).
	StageProfile []prof.StageCost `json:"stage_profile,omitempty"`
}

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so a connection that stalls mid-header cannot hold a
// server goroutine and socket for ever. Tests shorten it.
var readHeaderTimeout = 10 * time.Second

// StartServer listens on addr (host:port; host may be empty, port may be
// 0 for an ephemeral port) and serves o's live state in a background
// goroutine until Close. The Observer may be shared with a running
// simulation; handlers only take snapshots.
func StartServer(addr string, o *Observer) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: serve %s: %w", addr, err)
	}
	s := &Server{obs: o, ln: ln, start: time.Now()}
	s.srv = &http.Server{Handler: s.handler(), ReadHeaderTimeout: readHeaderTimeout}
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close
	return s, nil
}

// handler builds the endpoint mux for this server's observer.
func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics.json", s.handleMetricsJSON)
	mux.HandleFunc("/metrics", s.handleMetricsProm)
	mux.HandleFunc("/series", s.handleSeries)
	mux.HandleFunc("/events", s.handleEvents)
	// Live profiling: the engine labels every job with pprof.Do, so a
	// /debug/pprof/profile capture attributes CPU samples per
	// device/config/workload — on the -serve dashboard and on hetserved
	// (which mounts this handler at /).
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}

// NewHandler returns an http.Handler serving o's live state — the same
// endpoints StartServer exposes — for embedding into another server's
// mux (e.g. the hetserved daemon, which mounts it next to its /v1 job
// API). Uptime is measured from this call.
func NewHandler(o *Observer) http.Handler {
	s := &Server{obs: o, start: time.Now()}
	return s.handler()
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns a browsable http:// URL for the bound address.
func (s *Server) URL() string {
	if s == nil {
		return ""
	}
	addr := s.Addr()
	if host, port, err := net.SplitHostPort(addr); err == nil {
		if host == "" || host == "::" || host == "0.0.0.0" {
			addr = net.JoinHostPort("localhost", port)
		}
	}
	return "http://" + addr
}

// Close shuts the server down, waiting briefly for in-flight requests.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(dashboardHTML)
}

// Status assembles the /metrics.json payload.
func (s *Server) Status() ServerStatus {
	st := ServerStatus{
		Schema:        SchemaVersion,
		Phase:         s.obs.Phase(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Runtime:       ReadRuntime(),
		Progress:      s.obs.Prog().Status(),
	}
	st.Metrics = s.obs.Reg().Snapshot()
	st.StageProfile = s.obs.StageProf().Snapshot().Stages
	return st
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Status()) //nolint:errcheck // best-effort over HTTP
}

func (s *Server) handleSeries(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.obs.TimeSeries().WriteJSON(w) //nolint:errcheck
}

func (s *Server) handleEvents(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.obs.EventSink().WriteJSON(w) //nolint:errcheck
}

func (s *Server) handleMetricsProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePrometheus(w, s.obs.Reg().Snapshot())
}

// promName sanitises a dotted metric name into a Prometheus-legal one.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + len("hetcore_"))
	b.WriteString("hetcore_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders a registry snapshot in the Prometheus text
// exposition format (0.0.4): counters, gauges and cumulative histogram
// buckets. Output is sorted by metric name, so it is deterministic for a
// given snapshot.
func WritePrometheus(w interface{ Write([]byte) (int, error) }, s Snapshot) {
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := promName(k)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, s.Counters[k])
	}
	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := promName(k)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", n, n, promFloat(s.Gauges[k]))
	}
	names = names[:0]
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := s.Histograms[k]
		n := promName(k)
		fmt.Fprintf(w, "# TYPE %s histogram\n", n)
		cum := uint64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, promFloat(bound), cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, h.Count)
		fmt.Fprintf(w, "%s_sum %s\n", n, promFloat(h.Sum))
		fmt.Fprintf(w, "%s_count %d\n", n, h.Count)
	}
}

// promFloat renders a float the way Prometheus parsers expect.
func promFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return fmt.Sprintf("%g", v)
}
