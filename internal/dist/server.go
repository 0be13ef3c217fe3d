package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"hetcore/internal/engine"
	"hetcore/internal/obs"
)

// serverLatencyBuckets are the upper bounds (ms) of every server-side
// latency histogram. Cached trace jobs serve in well under a
// millisecond; a cold CPU-matrix simulation can take tens of seconds.
var serverLatencyBuckets = []float64{
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500,
	1000, 2500, 5000, 10000, 30000,
}

// DaemonConfig configures a simulation daemon.
type DaemonConfig struct {
	// Jobs is the local engine's worker-pool width (0 = NumCPU).
	Jobs int
	// CacheDir, when non-empty, attaches a persistent result cache, so
	// the daemon serves repeated keys across its whole lifetime and
	// across restarts.
	CacheDir string
	// Obs receives the daemon's metrics and is served on the obs
	// endpoints; nil builds a registry-only observer. A missing event log
	// is attached automatically so the structured request log (/events)
	// always works.
	Obs *obs.Observer
	// Logf logs one line per notable event (job errors, bad requests);
	// nil disables logging.
	Logf func(format string, args ...any)
}

// Daemon executes engine jobs received over HTTP on a local engine with
// an optional persistent cache. Endpoints: POST /v1/jobs, GET
// /v1/health, GET /v1/stats, plus every internal/obs endpoint
// (dashboard, /metrics, /metrics.json, /series, /events). Every request
// is instrumented: per-endpoint request/error counters and latency
// histograms, queue-depth and in-flight gauges, and one structured
// request-log event per call in the bounded /events ring.
type Daemon struct {
	cfg   DaemonConfig
	o     *obs.Observer
	eng   *engine.Engine
	start time.Time

	httpInFlight atomic.Int64

	ln  net.Listener
	srv *http.Server
}

// NewDaemon builds a daemon (not yet listening; call Start).
func NewDaemon(cfg DaemonConfig) (*Daemon, error) {
	o := cfg.Obs
	if o == nil {
		o = &obs.Observer{Metrics: obs.NewRegistry()}
	}
	if o.Events == nil {
		o.Events = obs.NewEventLog(0)
	}
	eng := engine.New(cfg.Jobs, o)
	if cfg.CacheDir != "" {
		c, err := OpenCache(cfg.CacheDir, o)
		if err != nil {
			return nil, fmt.Errorf("dist: opening cache: %w", err)
		}
		eng.SetCache(c)
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Daemon{cfg: cfg, o: o, eng: eng, start: time.Now()}, nil
}

// Engine returns the daemon's engine (for stats and tests).
func (d *Daemon) Engine() *engine.Engine { return d.eng }

// Handler returns the daemon's HTTP handler.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathJobs, d.instrument("jobs", d.handleJobs))
	mux.HandleFunc(PathHealth, d.instrument("health", d.handleHealth))
	mux.HandleFunc(PathStats, d.instrument("stats", d.handleStats))
	mux.Handle("/", obs.NewHandler(d.o))
	return mux
}

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so a connection that stalls mid-header cannot hold a
// server goroutine and socket for ever. Tests shorten it.
var readHeaderTimeout = 10 * time.Second

// Start listens on addr (port 0 picks an ephemeral port) and serves in
// a background goroutine until Close.
func (d *Daemon) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("dist: listen %s: %w", addr, err)
	}
	d.ln = ln
	d.srv = &http.Server{Handler: d.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	go d.srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (d *Daemon) Addr() string {
	if d.ln == nil {
		return ""
	}
	return d.ln.Addr().String()
}

// Close shuts the daemon down immediately, dropping in-flight requests
// (clients retry and fall back to local execution by design).
func (d *Daemon) Close() error {
	if d.srv == nil {
		return nil
	}
	return d.srv.Close()
}

func (d *Daemon) count(name string) {
	if reg := d.o.Reg(); reg != nil {
		reg.Counter(name).Inc()
	}
}

// reqRecorder captures the response status plus per-request log details
// the handler fills in (the request-log event name and numeric args).
type reqRecorder struct {
	http.ResponseWriter
	status int
	name   string
	args   map[string]float64
}

func (rr *reqRecorder) WriteHeader(status int) {
	rr.status = status
	rr.ResponseWriter.WriteHeader(status)
}

// instrument wraps one wire endpoint with the daemon's fleet metrics:
// request/latency accounting per endpoint, error counting per status
// code, live queue/in-flight gauges and one structured request-log
// event per call.
func (d *Daemon) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		inflight := d.httpInFlight.Add(1)
		defer d.httpInFlight.Add(-1)
		rr := &reqRecorder{ResponseWriter: w, status: http.StatusOK, name: endpoint}
		start := time.Now()
		h(rr, r)
		wallMS := float64(time.Since(start).Nanoseconds()) / 1e6

		reg := d.o.Reg()
		if reg != nil {
			reg.Counter("server.requests." + endpoint).Inc()
			reg.Histogram("server.latency_ms."+endpoint, serverLatencyBuckets).Observe(wallMS)
			if rr.status >= 400 {
				reg.Counter("server.errors." + strconv.Itoa(rr.status)).Inc()
				reg.Counter("server.endpoint_errors." + endpoint).Inc()
			}
			reg.Gauge("server.http_in_flight").Set(float64(inflight))
			reg.Gauge("server.queue_depth").Set(float64(d.eng.QueueDepth()))
			reg.Gauge("server.engine_in_flight").Set(float64(d.eng.InFlight()))
		}
		args := map[string]float64{
			"status": float64(rr.status),
			"ms":     wallMS,
		}
		for k, v := range rr.args {
			args[k] = v
		}
		d.o.AddEvent(obs.Event{
			T:    time.Since(d.start).Seconds(),
			Cat:  "http",
			Name: rr.name,
			Args: args,
		})
	}
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // best-effort over HTTP
}

// maxJobRequestBytes bounds a /v1/jobs body; real requests are tiny.
const maxJobRequestBytes = 1 << 20

func (d *Daemon) handleJobs(w http.ResponseWriter, r *http.Request) {
	rr, _ := w.(*reqRecorder)
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, wireError{Error: "POST required"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxJobRequestBytes))
	if err != nil {
		d.count("dist.server_bad_requests")
		writeJSON(w, http.StatusBadRequest, wireError{Error: "reading request: " + err.Error()})
		return
	}
	var req JobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		d.count("dist.server_bad_requests")
		d.cfg.Logf("dist: malformed job request from %s: %v", r.RemoteAddr, err)
		writeJSON(w, http.StatusBadRequest, wireError{Error: "malformed job request: " + err.Error()})
		return
	}
	if rr != nil {
		rr.name = "jobs " + req.Key.String()
	}
	fn, why := resolve(req.Key, d.o)
	if why != "" {
		d.count("dist.server_unresolvable")
		writeJSON(w, http.StatusUnprocessableEntity,
			wireError{Error: fmt.Sprintf("unresolvable key %s (%s)", req.Key, why)})
		return
	}

	start := time.Now()
	val, tm, jobErr := d.eng.DoTimed(req.Key, fn)
	timing := ServerTiming{
		QueueMS: tm.QueueMS,
		CacheMS: tm.CacheMS,
		ExecMS:  tm.ExecMS,
		Source:  tm.Source,
	}
	resp := JobResponse{
		Key:      req.Key.String(),
		TraceID:  req.TraceID,
		SpanID:   req.SpanID,
		Stamp:    Stamp(),
		CacheHit: tm.Source != "run",
	}
	if jobErr != nil {
		d.count("dist.server_job_errors")
		d.cfg.Logf("dist: job %s failed: %v", req.Key, jobErr)
		resp.Error = jobErr.Error()
		resp.WallMS = float64(time.Since(start).Nanoseconds()) / 1e6
		resp.Timing = &timing
		d.observeJob(rr, timing)
		writeJSON(w, http.StatusOK, resp)
		return
	}
	encodeStart := time.Now()
	typeName, data, err := EncodeResult(val)
	timing.EncodeMS = float64(time.Since(encodeStart).Nanoseconds()) / 1e6
	if err != nil {
		d.count("dist.server_errors")
		writeJSON(w, http.StatusInternalServerError, wireError{Error: err.Error()})
		return
	}
	resp.Type, resp.Result = typeName, data
	resp.WallMS = float64(time.Since(start).Nanoseconds()) / 1e6
	resp.Timing = &timing
	d.count("dist.server_jobs")
	d.observeJob(rr, timing)
	writeJSON(w, http.StatusOK, resp)
}

// observeJob records one served job's phase breakdown into the fleet
// histograms and the request-log details.
func (d *Daemon) observeJob(rr *reqRecorder, t ServerTiming) {
	if reg := d.o.Reg(); reg != nil {
		reg.Histogram("server.job.queue_ms", serverLatencyBuckets).Observe(t.QueueMS)
		reg.Histogram("server.job.cache_ms", serverLatencyBuckets).Observe(t.CacheMS)
		reg.Histogram("server.job.exec_ms", serverLatencyBuckets).Observe(t.ExecMS)
		reg.Histogram("server.job.encode_ms", serverLatencyBuckets).Observe(t.EncodeMS)
	}
	if rr != nil {
		cacheHit := 1.0
		if t.Source == "run" {
			cacheHit = 0
		}
		rr.args = map[string]float64{
			"queue_ms":  t.QueueMS,
			"exec_ms":   t.ExecMS,
			"cache_hit": cacheHit,
		}
	}
}

func (d *Daemon) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		OK:            true,
		Stamp:         Stamp(),
		Workers:       d.eng.Workers(),
		JobsRun:       d.eng.JobsRun(),
		CacheHits:     d.eng.CacheHits(),
		DiskHits:      d.eng.DiskHits(),
		UptimeSeconds: time.Since(d.start).Seconds(),
	})
}

// Stats assembles the /v1/stats payload from the live registry and
// engine state.
func (d *Daemon) Stats() StatsResponse {
	st := StatsResponse{
		Stamp:          Stamp(),
		UptimeSeconds:  time.Since(d.start).Seconds(),
		Workers:        d.eng.Workers(),
		QueueDepth:     d.eng.QueueDepth(),
		EngineInFlight: d.eng.InFlight(),
		HTTPInFlight:   d.httpInFlight.Load(),
		JobsRun:        d.eng.JobsRun(),
		CacheHits:      d.eng.CacheHits(),
		DiskHits:       d.eng.DiskHits(),
		ErrorsByStatus: map[string]uint64{},
		Endpoints:      map[string]EndpointStats{},
		EventsLogged:   d.o.EventSink().Total(),
		Runtime:        obs.ReadRuntime(),
	}
	reg := d.o.Reg()
	if reg == nil {
		return st
	}
	snap := reg.Snapshot()
	for name, v := range snap.Counters {
		if code, ok := cutPrefix(name, "server.errors."); ok {
			st.ErrorsByStatus[code] = v
		}
	}
	for name, v := range snap.Counters {
		endpoint, ok := cutPrefix(name, "server.requests.")
		if !ok {
			continue
		}
		ep := EndpointStats{
			Requests: v,
			Errors:   snap.Counters["server.endpoint_errors."+endpoint],
		}
		if h, ok := snap.Histograms["server.latency_ms."+endpoint]; ok && h.Count > 0 {
			ep.LatencyMeanMS = h.Sum / float64(h.Count)
			ep.LatencyP50MS = h.Quantile(0.50)
			ep.LatencyP95MS = h.Quantile(0.95)
			ep.LatencyP99MS = h.Quantile(0.99)
		}
		st.Endpoints[endpoint] = ep
	}
	return st
}

// cutPrefix is strings.CutPrefix restricted to what the stats assembly
// needs (kept local to avoid importing strings for one call pair).
func cutPrefix(s, prefix string) (string, bool) {
	if len(s) >= len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):], true
	}
	return s, false
}

func (d *Daemon) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, d.Stats())
}
