package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"hetcore/internal/dist"
	"hetcore/internal/engine"
	"hetcore/internal/hetsim"
	"hetcore/internal/trace"
)

// The serve workload: an in-process hetserved daemon (dist.Daemon) on
// loopback with two engine lanes, driven by two clients in a closed loop
// (each client sends its next request when the previous reply is in, as
// hetcore -remote lanes do). A unit is a fixed batch of requests split
// between the clients. In a mixed unit exactly one request in ten
// carries a cold key: a fresh seed, so the daemon simulates a small CPU
// run. The rest carry hot keys the daemon already holds in memory, which
// cost only the wire and the encoding. A hot unit sends hot keys only.

const (
	// serveInstr is every serve key's instruction budget. A cold key
	// then costs about 12 ms of simulation on a 2-CPU x86 host, some
	// fifty times a hot round trip, so p99 (the 90th percentile of the
	// cold tenth) falls on daemon work, not loopback jitter.
	serveInstr   = 10_000
	unitRequests = 600
	coldPerUnit  = unitRequests / 10
	serveClients = 2
	// coldSeedBase keeps cold seeds far from any seed an experiment
	// uses, as the repo's load generator does.
	coldSeedBase   = 1 << 40
	requestTimeout = 10 * time.Second
	// servePassSeconds is about how long a mixed and a hot unit take on
	// a 2-CPU x86 host.
	servePassSeconds = 0.62
)

var (
	hotConfigs     = []string{"BaseCMOS", "AdvHet"}
	serveWorkloads = []string{"barnes", "blackscholes", "canneal", "radix"}
)

type serveWorkload struct{}

// hotKey is a key the daemon holds, with the encoded result a local
// computation gives for it.
type hotKey struct {
	key  engine.Key
	typ  string
	want []byte
}

type server struct {
	d       *dist.Daemon
	base    string
	clients []*http.Client
	hot     []hotKey
	hotByK  map[engine.Key]hotKey
	stamp   string
	coldSeq uint64
	seed    uint64
}

// sample is one request's outcome.
type sample struct {
	latMS  float64
	timing dist.ServerTiming
	bytes  int
	key    engine.Key
	result any // the decoded cold result
}

// setupServer starts a daemon, checks its stamp, and warms the hot keys,
// checking each result against a local computation.
func setupServer(e *env) (*server, error) {
	d, err := dist.NewDaemon(dist.DaemonConfig{Jobs: lanes})
	if err != nil {
		return nil, err
	}
	if err := d.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	s := &server{d: d, base: "http://" + d.Addr(), stamp: dist.Stamp(), hotByK: map[engine.Key]hotKey{}, seed: e.seed}
	for i := 0; i < serveClients; i++ {
		s.clients = append(s.clients, &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}})
	}
	resp, err := s.clients[0].Get(s.base + dist.PathHealth)
	if err != nil {
		s.close()
		return nil, err
	}
	var h dist.HealthResponse
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil || !h.OK || h.Stamp != s.stamp {
		s.close()
		return nil, fmt.Errorf("daemon health %+v: %v", h, err)
	}
	for _, cn := range hotConfigs {
		for _, wl := range serveWorkloads {
			k := engine.Key{Device: "cpu", Config: cn, Workload: wl, Seed: e.seed, Instr: serveInstr}
			fn, ok := dist.Resolve(k, nil)
			if !ok {
				s.close()
				return nil, fmt.Errorf("hot key %s does not resolve", k)
			}
			v, err := fn()
			if err != nil {
				s.close()
				return nil, err
			}
			typ, want, err := dist.EncodeResult(v)
			if err != nil {
				s.close()
				return nil, err
			}
			hk := hotKey{key: k, typ: typ, want: want}
			s.hot = append(s.hot, hk)
			s.hotByK[k] = hk
			smp, jr, err := s.do(0, k)
			if err == nil {
				err = s.decode(&smp, jr, false)
			}
			if err != nil {
				s.close()
				return nil, fmt.Errorf("warming %s: %w", k, err)
			}
		}
	}
	return s, nil
}

func (s *server) close() {
	s.d.Close()
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
}

// do sends one request on client c and decodes the reply envelope; the
// latency covers both. The reply must carry our stamp, no job error and
// the key asked for.
func (s *server) do(c int, k engine.Key) (sample, dist.JobResponse, error) {
	smp := sample{key: k}
	var jr dist.JobResponse
	body, err := json.Marshal(dist.JobRequest{Key: k})
	if err != nil {
		return smp, jr, err
	}
	t0 := time.Now()
	resp, err := s.clients[c].Post(s.base+dist.PathJobs, "application/json", bytes.NewReader(body))
	if err != nil {
		return smp, jr, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return smp, jr, err
	}
	if resp.StatusCode != http.StatusOK {
		return smp, jr, fmt.Errorf("HTTP %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &jr); err != nil {
		return smp, jr, err
	}
	smp.latMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	smp.bytes = len(raw)
	if jr.Timing != nil {
		smp.timing = *jr.Timing
	}
	switch {
	case jr.Stamp != s.stamp:
		return smp, jr, fmt.Errorf("stamp %q, want %q", jr.Stamp, s.stamp)
	case jr.Error != "":
		return smp, jr, fmt.Errorf("job error: %s", jr.Error)
	case jr.Key != k.String():
		return smp, jr, fmt.Errorf("reply for key %s", jr.Key)
	}
	return smp, jr, nil
}

// decode decodes the reply's result with the dist codec and checks it:
// a hot result must be byte for byte the local computation, a cold one
// the CPU run its key names.
func (s *server) decode(smp *sample, jr dist.JobResponse, cold bool) error {
	v, err := dist.DecodeResult(jr.Type, jr.Result)
	if err != nil {
		return err
	}
	if !cold {
		hk := s.hotByK[smp.key]
		if jr.Type != hk.typ || !bytes.Equal(jr.Result, hk.want) {
			return fmt.Errorf("hot result differs from the local computation")
		}
		return nil
	}
	r, ok := v.(hetsim.CPUResult)
	if !ok || r.Config != smp.key.Config || r.Workload != smp.key.Workload || r.Instructions == 0 {
		return fmt.Errorf("cold reply is not the %s run", smp.key)
	}
	smp.result = r
	return nil
}

// schedule draws a unit's keys from the run seed and the unit index:
// exactly coldPerUnit cold keys (never seen before) at seeded positions
// in a mixed unit, seeded hot keys elsewhere.
func (s *server) schedule(n int, mixed bool) ([]engine.Key, []bool) {
	rng := rand.New(rand.NewSource(int64(s.seed)*1_000_003 + int64(n)))
	keys, cold := make([]engine.Key, unitRequests), make([]bool, unitRequests)
	if mixed {
		for _, i := range rng.Perm(unitRequests)[:coldPerUnit] {
			cold[i] = true
		}
	}
	for i := range keys {
		if cold[i] {
			s.coldSeq++
			keys[i] = engine.Key{Device: "cpu", Config: "BaseCMOS",
				Workload: serveWorkloads[s.coldSeq%uint64(len(serveWorkloads))],
				Seed:     coldSeedBase + s.seed<<24 + s.coldSeq, Instr: serveInstr}
		} else {
			keys[i] = s.hot[rng.Intn(len(s.hot))].key
		}
	}
	return keys, cold
}

// unit sends the keys from serveClients closed-loop clients (client c
// takes every serveClients-th request) and returns the unit's wall time,
// process CPU time and successful samples. A traced unit records a span
// per request and per result decode.
func (s *server) unit(e *env, keys []engine.Key, cold []bool, t *tracer) (float64, float64, []sample) {
	per := make([][]sample, serveClients)
	var wg sync.WaitGroup
	c0, t0 := cpuSeconds(), time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(keys); i += serveClients {
				var g, id int64
				if t != nil {
					g = t.groups.Add(1)
					id = t.rec.begin("dist.request", t.root, g)
				}
				smp, jr, err := s.do(c, keys[i])
				if t != nil {
					t.rec.end(id)
					id = t.rec.begin("dist.decode", t.root, g)
				}
				if err == nil {
					err = s.decode(&smp, jr, cold[i])
				}
				if t != nil {
					t.rec.end(id)
				}
				e.tally.check(err == nil, "request %s: %v", keys[i], err)
				if err == nil {
					per[c] = append(per[c], smp)
				}
			}
		}(c)
	}
	wg.Wait()
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return wall, cpu, all
}

// pass is one mixed unit then one hot unit.
type servePass struct {
	mixedWall, mixedCPU, hotWall float64
	mixed, hot                   []sample
}

func (s *server) pass(e *env, n int, t *tracer) servePass {
	var p servePass
	keys, cold := s.schedule(2*n, true)
	p.mixedWall, p.mixedCPU, p.mixed = s.unit(e, keys, cold, t)
	keys, cold = s.schedule(2*n+1, false)
	p.hotWall, _, p.hot = s.unit(e, keys, cold, t)
	return p
}

func (serveWorkload) untraced(e *env) (map[string]float64, error) {
	s, setupS, err := setupMedian(func() (*server, error) { return setupServer(e) }, (*server).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	checkExpected(e, hotDigests(s))
	printDigests(e, hotDigests(s))
	var walls, cpus, hotWalls, rates, lat []float64
	for n := 0; n < passes(e.seconds, servePassSeconds); n++ {
		p := s.pass(e, n, nil)
		walls, cpus, hotWalls = append(walls, p.mixedWall), append(cpus, p.mixedCPU), append(hotWalls, p.hotWall)
		rates = append(rates, float64(len(p.mixed))/p.mixedWall)
		for _, smp := range p.mixed {
			lat = append(lat, smp.latMS)
		}
		// A failed request counts as missing any latency limit: it
		// enters the quantiles at the request timeout.
		for i := len(p.mixed); i < unitRequests; i++ {
			lat = append(lat, float64(requestTimeout.Milliseconds()))
		}
	}
	p50, err := quantile(lat, 0.50)
	if err != nil {
		return nil, err
	}
	p99, err := quantile(lat, 0.99)
	if err != nil {
		return nil, err
	}
	printSamples(e, map[string]int{"mixed_units": len(walls), "hot_units": len(hotWalls), "latency_samples": len(lat)})
	return map[string]float64{
		"setup_s":     setupS,
		"wall_s":      median(walls),
		"cpu_s":       median(cpus),
		"warm_wall_s": median(hotWalls),
		"peak_rss_mb": peakRSSMB(),
		"jobs_per_s":  median(rates),
		"p50_ms":      p50,
		"p99_ms":      p99,
	}, nil
}

// hotDigests names the digest of every hot key's locally computed
// result, so two commits can compare what the daemon serves.
func hotDigests(s *server) map[string]string {
	d := map[string]string{}
	for _, hk := range s.hot {
		d[hk.key.String()] = digestBytes(hk.want)
	}
	return d
}

// tracedPasses is how many passes the traced serve run makes, untraced
// and traced each.
const tracedPasses = 4

func (serveWorkload) traced(e *env) (map[string]float64, error) {
	s, err := setupServer(e)
	if err != nil {
		return nil, err
	}
	defer s.close()
	checkExpected(e, hotDigests(s))
	printDigests(e, hotDigests(s))
	eng := s.d.Engine()
	var refWall float64
	j0, m0, d0 := eng.JobsRun(), eng.CacheHits(), eng.DiskHits()
	mem, _ := measureMem(func() error {
		for n := 0; n < tracedPasses; n++ {
			p := s.pass(e, n, nil)
			refWall += p.mixedWall + p.hotWall
		}
		return nil
	})
	jobs, memo, disk := float64(eng.JobsRun()-j0), float64(eng.CacheHits()-m0), float64(eng.DiskHits()-d0)

	t := newTracer()
	var traced []sample
	var tracedWall float64
	for n := tracedPasses; n < 2*tracedPasses; n++ {
		p := s.pass(e, n, t)
		tracedWall += p.mixedWall + p.hotWall
		traced = append(traced, p.mixed...)
		traced = append(traced, p.hot...)
	}
	t.rec.end(t.root)

	var cpus []*cpuRun
	var keys []engine.Key
	var wire, queue, exec, encode, respBytes, ranExec float64
	for _, smp := range traced {
		tm := smp.timing
		keys = append(keys, smp.key)
		wire += smp.latMS - (tm.QueueMS + tm.CacheMS + tm.ExecMS + tm.EncodeMS)
		queue, exec, encode = queue+tm.QueueMS, exec+tm.ExecMS, encode+tm.EncodeMS
		respBytes += float64(smp.bytes)
		if tm.Source != "run" {
			continue
		}
		ranExec += tm.ExecMS / 1e3
		r, ok := smp.result.(hetsim.CPUResult)
		if !ok {
			continue
		}
		cfg, err := hetsim.CPUConfigByName(smp.key.Config)
		if err != nil {
			return nil, err
		}
		prof, err := trace.CPUWorkload(smp.key.Workload)
		if err != nil {
			return nil, err
		}
		cpus = append(cpus, &cpuRun{cfg: cfg, prof: prof,
			opts: hetsim.RunOpts{TotalInstructions: smp.key.Instr, Seed: smp.key.Seed}, res: r})
	}
	rd, err := redrive(e, cpus, nil, diskVals{}, keys)
	if err != nil {
		return nil, err
	}
	spans := t.rec.closed()
	if err := writeChromeTrace(tracePath(e), "perfbench "+e.name, spans); err != nil {
		return nil, err
	}
	n := float64(len(traced))
	if n == 0 {
		return nil, fmt.Errorf("no traced request succeeded")
	}
	m := layerMetrics(t, spans, rd)
	m["engine.jobs_run"], m["engine.memo_hits"], m["engine.disk_hits"] = jobs, memo, disk
	m["engine.memo_hit_share"] = share(memo, jobs+memo+disk)
	m["engine.queue_s"] = queue / 1e3
	m["engine.lane_idle_s"] = lanes*tracedWall - ranExec
	m["dist.wire_ms"] = wire / n
	m["dist.server_queue_ms"], m["dist.server_exec_ms"], m["dist.server_encode_ms"] = queue/n, exec/n, encode/n
	m["dist.response_bytes"] = respBytes / n
	for _, k := range []string{"dist.puts", "dist.gets", "dist.get_hit_ratio", "soc.over_budget_share"} {
		m[k] = 0
	}
	m["trace_overhead_s"] = tracedWall - refWall
	m["runtime.alloc_mb"], m["runtime.gc_cycles"], m["runtime.gc_pause_s"] = mem.allocMB, mem.gcCycles, mem.gcPauseS
	return m, nil
}
