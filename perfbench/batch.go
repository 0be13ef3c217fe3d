package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"hetcore/internal/dist"
	"hetcore/internal/engine"
	"hetcore/internal/gpu"
	"hetcore/internal/harness"
	"hetcore/internal/hetsim"
	"hetcore/internal/soc"
	"hetcore/internal/trace"
)

// batchSpec is a batch workload: registry experiments run in order on
// one fresh engine (the cold unit), then served again from a disk cache
// by a fresh engine (the warm unit).
type batchSpec struct {
	name string
	exps []string
	// instr is the CPU instruction budget per run (0: the hetsim
	// default of 400k). paper_cpu uses 100k so that four cold units fit
	// a 20 s run on a 2-CPU host.
	instr uint64
	// diskCold makes the cold unit write a disk cache, which the warm
	// unit of the same pass then reads (codesign). Without it the cold
	// unit has no disk cache and the warm cache is filled once from the
	// first cold unit's results, outside any timed region.
	diskCold bool
	// passSeconds is about how long one pass (a cold unit and its warm
	// units) takes on a 2-CPU x86 host; a run makes enough passes to
	// fill --seconds.
	passSeconds float64
}

var batchSpecs = map[string]batchSpec{
	"paper_cpu": {name: "paper_cpu", exps: []string{"fig7", "fig8", "fig9"}, instr: 100_000, passSeconds: 5},
	"paper_gpu": {name: "paper_gpu", exps: []string{"fig10", "fig11", "fig12"}, passSeconds: 7.6},
	"codesign":  {name: "codesign", exps: []string{"soc", "socaccel", "traffic_policies"}, diskCold: true, passSeconds: 8.5},
}

// minWarmGets is how many disk reads the warm units of one pass make at
// least: p50_ms and p99_ms of a batch workload are taken over them, and
// a p99 over a few thousand reads does not hang on one slow read.
const minWarmGets = 3000

// unit is one timed execution of the workload's experiments.
type unit struct {
	wall, cpu float64
	digests   map[string]string
	jobsRun   uint64
	memoHits  uint64
	diskHits  uint64
	getMS     []float64 // per disk read, warm units only
	gets      int
	hits      int
}

// setup resolves the experiments and runs the plan's first simulation
// once outside any engine, so code and heap are warm before timing.
func (b batchSpec) setup(e *env) error {
	for _, id := range b.exps {
		if _, err := harness.ByID(id); err != nil {
			return err
		}
	}
	opts := hetsim.RunOpts{TotalInstructions: b.instr, Seed: e.seed}
	switch b.name {
	case "paper_gpu":
		_, err := hetsim.RunDevice("gpu", "BaseCMOS", gpu.Kernels()[0].Name, opts)
		return err
	case "codesign":
		cfg, err := hetsim.CPUConfigByName(soc.CMOSCoreConfig)
		if err != nil {
			return err
		}
		prof, err := trace.CPUWorkload(soc.Workloads()[0].Name)
		if err != nil {
			return err
		}
		_, err = hetsim.RunCPU(hetsim.SingleCore(cfg), prof, opts)
		return err
	default:
		_, err := hetsim.RunDevice("cpu", "BaseCMOS", trace.CPUWorkloads()[0].Name, opts)
		return err
	}
}

// runUnit runs the experiments on a fresh engine with the given
// second-level cache (nil: none) and times the whole call sequence.
func (b batchSpec) runUnit(e *env, c engine.Cache) unit {
	eng := engine.New(lanes, nil)
	if c != nil {
		eng.SetCache(c)
	}
	opts := harness.Options{Seed: e.seed, Instructions: b.instr, Jobs: lanes, Engine: eng}
	tables := make([]harness.Table, 0, len(b.exps))
	c0, t0 := cpuSeconds(), time.Now()
	for _, id := range b.exps {
		ex, err := harness.ByID(id)
		if err == nil {
			var t harness.Table
			t, err = harness.RunExperiment(ex, opts)
			tables = append(tables, t)
		}
		e.tally.check(err == nil, "%s: %v", id, err)
	}
	u := unit{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0,
		jobsRun: eng.JobsRun(), memoHits: eng.CacheHits(), diskHits: eng.DiskHits()}
	u.digests = map[string]string{}
	for _, t := range tables {
		u.digests[t.ID] = digestTable(t)
	}
	return u
}

// resultLog is an engine.Cache that never hits and keeps every result
// stored into it: the cold unit of paper_cpu/paper_gpu runs without a
// disk cache, and its results seed the warm unit's disk cache later.
type resultLog struct {
	mu   sync.Mutex
	keys []engine.Key
	vals []any
}

func (l *resultLog) Get(engine.Key) (any, bool) { return nil, false }

func (l *resultLog) Put(k engine.Key, v any) {
	l.mu.Lock()
	l.keys = append(l.keys, k)
	l.vals = append(l.vals, v)
	l.mu.Unlock()
}

// fill writes the logged results into a disk cache at dir.
func (l *resultLog) fill(dir string) error {
	dc, err := dist.OpenCache(dir, nil)
	if err != nil {
		return err
	}
	for i, k := range l.keys {
		dc.Put(k, l.vals[i])
	}
	return nil
}

// probeCache wraps the disk cache a unit reads or writes: it times each
// Get, counts hits, and in a traced run records a span around every Get
// and Put and keeps the values for the codec re-drive.
type probeCache struct {
	inner engine.Cache
	tr    *tracer // nil in untraced runs

	mu    sync.Mutex
	getMS []float64
	gets  int
	hits  int
	puts  int
	vals  diskVals // traced runs only
}

func (p *probeCache) Get(k engine.Key) (any, bool) {
	id := p.tr.beginFor(k, "dist.get")
	t0 := time.Now()
	v, ok := p.inner.Get(k)
	d := time.Since(t0)
	p.tr.end(id)
	p.mu.Lock()
	p.gets++
	p.getMS = append(p.getMS, float64(d.Nanoseconds())/1e6)
	if ok {
		p.hits++
		if p.tr != nil {
			p.vals.gets = append(p.vals.gets, keyVal{k, v})
		}
	}
	p.mu.Unlock()
	return v, ok
}

func (p *probeCache) Put(k engine.Key, v any) {
	id := p.tr.beginFor(k, "dist.put")
	p.inner.Put(k, v)
	p.tr.end(id)
	p.mu.Lock()
	p.puts++
	if p.tr != nil {
		p.vals.puts = append(p.vals.puts, keyVal{k, v})
	}
	p.mu.Unlock()
}

// coldUnit runs the cold unit: codesign against an empty disk cache in
// dir, the paper workloads with no disk cache (logging results instead).
func (b batchSpec) coldUnit(e *env, dir string) (unit, *resultLog, error) {
	if b.diskCold {
		dc, err := dist.OpenCache(dir, nil)
		if err != nil {
			return unit{}, nil, err
		}
		return b.runUnit(e, dc), nil, nil
	}
	log := &resultLog{}
	return b.runUnit(e, log), log, nil
}

// warmUnit serves the experiments from the filled disk cache in dir on
// a fresh engine; every result must come from disk.
func (b batchSpec) warmUnit(e *env, dir string) (unit, error) {
	dc, err := dist.OpenCache(dir, nil)
	if err != nil {
		return unit{}, err
	}
	p := &probeCache{inner: dc}
	u := b.runUnit(e, p)
	u.getMS, u.gets, u.hits = p.getMS, p.gets, p.hits
	e.tally.check(u.jobsRun == 0 && u.gets > 0 && u.hits == u.gets,
		"warm unit: %d jobs ran, %d of %d disk reads hit", u.jobsRun, u.hits, u.gets)
	return u, nil
}

// pass runs one cold unit and the warm units that follow it. warmDir is
// the paper workloads' warm cache, filled by the first pass.
func (b batchSpec) pass(e *env, n int, warmDir string, warmReps int) (unit, []unit, error) {
	dir := warmDir
	if b.diskCold {
		dir = filepath.Join(e.scratch, fmt.Sprintf("cache-%d", n))
		defer os.RemoveAll(dir)
	}
	cold, log, err := b.coldUnit(e, dir)
	if err != nil {
		return unit{}, nil, err
	}
	if log != nil && n == 0 {
		if err := log.fill(warmDir); err != nil {
			return unit{}, nil, err
		}
	}
	if warmReps == 0 {
		warmReps = 1
		if !b.diskCold {
			warmReps = int(math.Ceil(float64(minWarmGets) / float64(max(1, len(log.keys)))))
		}
	}
	var warms []unit
	for i := 0; i < warmReps; i++ {
		w, err := b.warmUnit(e, dir)
		if err != nil {
			return unit{}, nil, err
		}
		checkSame(e, "warm unit vs cold unit", w.digests, cold.digests)
		warms = append(warms, w)
	}
	return cold, warms, nil
}

func (b batchSpec) untraced(e *env) (map[string]float64, error) {
	_, setupS, err := setupMedian(func() (struct{}, error) { return struct{}{}, b.setup(e) }, nil)
	if err != nil {
		return nil, err
	}
	warmDir := filepath.Join(e.scratch, "warm")
	var colds, warms []unit
	for n := 0; n < passes(e.seconds, b.passSeconds); n++ {
		cold, ws, err := b.pass(e, n, warmDir, 0)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			checkExpected(e, cold.digests)
			printDigests(e, cold.digests)
		} else {
			checkSame(e, "cold unit vs first cold unit", cold.digests, colds[0].digests)
		}
		colds, warms = append(colds, cold), append(warms, ws...)
		fmt.Fprintf(e.log, "perfbench: pass %d: cold %.3f s (cpu %.3f s), warm median %.4f s over %d units\n",
			n, cold.wall, cold.cpu, median(unitWalls(ws)), len(ws))
	}
	var cpus, rates, getMS []float64
	for _, u := range colds {
		cpus = append(cpus, u.cpu)
		rates = append(rates, float64(u.jobsRun)/u.wall)
	}
	for _, u := range warms {
		getMS = append(getMS, u.getMS...)
	}
	p50, err := quantile(getMS, 0.50)
	if err != nil {
		return nil, err
	}
	p99, err := quantile(getMS, 0.99)
	if err != nil {
		return nil, err
	}
	printSamples(e, map[string]int{"cold_units": len(colds), "warm_units": len(warms), "latency_samples": len(getMS)})
	return map[string]float64{
		"setup_s":     setupS,
		"wall_s":      median(unitWalls(colds)),
		"cpu_s":       median(cpus),
		"warm_wall_s": median(unitWalls(warms)),
		"peak_rss_mb": peakRSSMB(),
		"jobs_per_s":  median(rates),
		"p50_ms":      p50,
		"p99_ms":      p99,
	}, nil
}

// passes is how many passes fill a run of the given length: a fixed
// count per workload and --seconds, so every run takes the median over
// the same number of units. At least two.
func passes(seconds, passSeconds float64) int {
	return max(2, int(math.Ceil(seconds/passSeconds)))
}

func unitWalls(us []unit) []float64 {
	w := make([]float64, len(us))
	for i, u := range us {
		w[i] = u.wall
	}
	return w
}

// memDelta is the Go runtime's allocation and GC activity over a region.
type memDelta struct{ allocMB, gcCycles, gcPauseS float64 }

func measureMem(fn func() error) (memDelta, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := fn()
	runtime.ReadMemStats(&b)
	return memDelta{
		allocMB:  float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20),
		gcCycles: float64(b.NumGC - a.NumGC),
		gcPauseS: float64(b.PauseTotalNs-a.PauseTotalNs) / 1e9,
	}, err
}
