package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hetcore/internal/dist"
	"hetcore/internal/engine"
	"hetcore/internal/gpu"
	"hetcore/internal/harness"
	"hetcore/internal/hetsim"
	"hetcore/internal/soc"
	"hetcore/internal/trace"
	"hetcore/internal/traffic"
)

// The traced run of a batch workload. It cannot put spans inside the
// harness, so it declares the same engine jobs the harness would (same
// keys, same simulation calls) and runs them itself through
// engine.DoTimed, with a span around each job and each simulation call.
// The harness experiments then render from the engine's memo; if any of
// them still runs a job, the keys have drifted from the harness and the
// traced run fails. Layers reached only from inside a simulation (trace,
// cpu, cache, gpu, the codec) are driven again afterwards on the same
// inputs (redrive.go).

// planJob is one engine job of a workload's plan.
type planJob struct {
	key  engine.Key
	span string // name of the span around the simulation call
	run  func() (any, error)
	cpu  *cpuRun // what the CPU re-drive needs, for CPU simulations
	gpu  *gpuRun // likewise for GPU simulations
}

// tracer records the spans of one traced run and the engine timings of
// every job it submits.
type tracer struct {
	rec     *recorder
	root    int64
	groups  atomic.Int64
	parents sync.Map // engine.Key -> [2]int64{job span id, group}

	mu       sync.Mutex
	timings  []engine.JobTiming
	keys     []engine.Key // every job key of the simulating stages, in order
	cpuRuns  []*cpuRun
	gpuRuns  []*gpuRun
	sims     map[string]int // simulation calls per span name
	epochs   float64        // traffic epochs simulated
	laneIdle float64        // lane-seconds no job ran, over cold stages
}

func newTracer() *tracer {
	t := &tracer{rec: newRecorder(), sims: map[string]int{}}
	t.root = t.rec.begin("run", 0, 0)
	return t
}

// beginFor opens a span under the engine job of key (a cache call the
// engine makes on that job's behalf). A nil tracer records nothing.
func (t *tracer) beginFor(k engine.Key, name string) int64 {
	if t == nil {
		return 0
	}
	parent, group := t.root, int64(0)
	if v, ok := t.parents.Load(k); ok {
		pg := v.([2]int64)
		parent, group = pg[0], pg[1]
	}
	return t.rec.begin(name, parent, group)
}

func (t *tracer) end(id int64) {
	if t != nil {
		t.rec.end(id)
	}
}

// runStage submits the jobs concurrently, as engine.RunAll does, each
// through DoTimed inside an engine.job span. cold marks a stage whose
// jobs simulate; its lane idle time is accounted.
func (t *tracer) runStage(eng *engine.Engine, jobs []planJob, cold bool) ([]any, error) {
	out := make([]any, len(jobs))
	errs := make([]error, len(jobs))
	tms := make([]engine.JobTiming, len(jobs))
	start := time.Now()
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j := jobs[i]
			g := t.groups.Add(1)
			id := t.rec.begin("engine.job", t.root, g)
			t.parents.Store(j.key, [2]int64{id, g})
			out[i], tms[i], errs[i] = eng.DoTimed(j.key, func() (any, error) {
				sid := t.rec.begin(j.span, id, g)
				defer t.rec.end(sid)
				return j.run()
			})
			t.rec.end(id)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.timings = append(t.timings, tms...)
	if cold {
		for _, j := range jobs {
			t.keys = append(t.keys, j.key)
		}
	}
	var exec float64
	for i, j := range jobs {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s: %w", j.key, errs[i])
		}
		if tms[i].Source != "run" {
			continue
		}
		exec += tms[i].ExecMS / 1e3
		t.sims[j.span]++
		switch {
		case j.cpu != nil:
			j.cpu.res = out[i].(hetsim.CPUResult)
			t.cpuRuns = append(t.cpuRuns, j.cpu)
		case j.gpu != nil:
			j.gpu.res = out[i].(hetsim.GPUResult)
			t.gpuRuns = append(t.gpuRuns, j.gpu)
		}
		if r, ok := out[i].(traffic.Result); ok {
			t.epochs += float64(r.Epochs + r.DrainEpochs)
		}
	}
	if cold {
		t.laneIdle += lanes*wall - exec
	}
	return out, nil
}

// render runs the harness experiments on the engine the plan filled,
// each inside a harness.exp span, and fails if they simulate anything.
func (t *tracer) render(e *env, b batchSpec, eng *engine.Engine) map[string]string {
	opts := harness.Options{Seed: e.seed, Instructions: b.instr, Jobs: lanes, Engine: eng}
	before := eng.JobsRun()
	digests := map[string]string{}
	for _, id := range b.exps {
		ex, err := harness.ByID(id)
		if err == nil {
			sid := t.rec.begin("harness.exp", t.root, t.groups.Add(1))
			var tbl harness.Table
			tbl, err = harness.RunExperiment(ex, opts)
			t.rec.end(sid)
			digests[tbl.ID] = digestTable(tbl)
		}
		e.tally.check(err == nil, "traced %s: %v", id, err)
	}
	e.tally.check(eng.JobsRun() == before,
		"the harness ran %d jobs the traced plan did not declare (plan keys drifted)", eng.JobsRun()-before)
	return digests
}

// cpuJob declares one CPU simulation the way the harness does.
func cpuJob(key engine.Key, cfg hetsim.CPUConfig, prof trace.Profile, opts hetsim.RunOpts) planJob {
	return planJob{key: key, span: "hetsim.run", cpu: &cpuRun{cfg: cfg, prof: prof, opts: opts},
		run: func() (any, error) { return hetsim.RunCPU(cfg, prof, opts) }}
}

// gpuJob declares one stock GPU simulation the way the harness does.
func gpuJob(cfgName string, k gpu.Kernel, seed uint64) (planJob, error) {
	cfg, err := hetsim.GPUConfigByName(cfgName)
	if err != nil {
		return planJob{}, err
	}
	return planJob{
		key:  engine.Key{Device: "gpu", Config: cfgName, Workload: k.Name, Seed: seed},
		span: "hetsim.run", gpu: &gpuRun{cfg: cfg, kern: k, seed: seed},
		run: func() (any, error) { return hetsim.RunGPU(cfg, k, seed) },
	}, nil
}

// The figure configurations, in the harness's order (Figures 7-9 and
// 10-12).
var (
	fig7Configs  = []string{"BaseCMOS", "BaseCMOS-Enh", "BaseTFET", "BaseHet", "AdvHet", "AdvHet-2X"}
	fig10Configs = []string{"BaseCMOS", "BaseTFET", "BaseHet", "AdvHet", "AdvHet-2X"}
)

// runPlan declares the workload's engine jobs stage by stage and runs
// each stage through run.
func (b batchSpec) runPlan(seed uint64, run func([]planJob) ([]any, error)) error {
	opts := hetsim.RunOpts{TotalInstructions: b.instr, Seed: seed}
	var jobs []planJob
	switch b.name {
	case "paper_cpu":
		for _, cn := range fig7Configs {
			cfg, err := hetsim.CPUConfigByName(cn)
			if err != nil {
				return err
			}
			for _, p := range trace.CPUWorkloads() {
				jobs = append(jobs, cpuJob(engine.Key{Device: "cpu", Config: cn, Workload: p.Name,
					Seed: seed, Instr: b.instr}, cfg, p, opts))
			}
		}
		_, err := run(jobs)
		return err
	case "paper_gpu":
		for _, cn := range fig10Configs {
			for _, k := range gpu.Kernels() {
				j, err := gpuJob(cn, k, seed)
				if err != nil {
					return err
				}
				jobs = append(jobs, j)
			}
		}
		_, err := run(jobs)
		return err
	}
	return b.runCodesignPlan(seed, opts, run)
}

// runCodesignPlan declares what soc, socaccel and traffic_policies run:
// the 1-core component runs and AdvHet kernel runs, then one soc
// evaluation per (in-budget mix, workload), then the traffic scenarios.
func (b batchSpec) runCodesignPlan(seed uint64, opts hetsim.RunOpts, run func([]planJob) ([]any, error)) error {
	wls := soc.Workloads()
	compKey := func(cn, wl string) engine.Key {
		return engine.Key{Device: "cpu", Config: cn, Workload: wl, Seed: seed, Instr: b.instr, Variant: "cores=1"}
	}
	coreCfgs := []string{soc.CMOSCoreConfig, soc.TFETCoreConfig}
	var jobs []planJob
	for _, wl := range wls {
		prof, err := trace.CPUWorkload(wl.Name)
		if err != nil {
			return err
		}
		for _, cn := range coreCfgs {
			cfg, err := hetsim.CPUConfigByName(cn)
			if err != nil {
				return err
			}
			jobs = append(jobs, cpuJob(compKey(cn, wl.Name), hetsim.SingleCore(cfg), prof, opts))
		}
		k, err := gpu.KernelByName(wl.Kernel)
		if err != nil {
			return err
		}
		j, err := gpuJob(soc.GPUConfig, k, seed)
		if err != nil {
			return err
		}
		jobs = append(jobs, j)
	}
	outs, err := run(jobs)
	if err != nil {
		return err
	}
	comps := map[string]soc.Components{}
	cpuRes := map[engine.Key]hetsim.CPUResult{}
	for i, wl := range wls {
		cm, tf, g := outs[3*i].(hetsim.CPUResult), outs[3*i+1].(hetsim.CPUResult), outs[3*i+2].(hetsim.GPUResult)
		cpuRes[compKey(coreCfgs[0], wl.Name)], cpuRes[compKey(coreCfgs[1], wl.Name)] = cm, tf
		var c soc.Components
		if c.CMOS, err = soc.CoreComponentOf(cm); err != nil {
			return err
		}
		if c.TFET, err = soc.CoreComponentOf(tf); err != nil {
			return err
		}
		if err := c.FillKernel(g); err != nil {
			return err
		}
		comps[wl.Name] = c
	}

	in, _ := soc.Partition(soc.DefaultSpace(), soc.DefaultBudget())
	jobs = jobs[:0]
	for _, cfg := range in {
		for _, wl := range wls {
			cfg, wl, c := cfg, wl, comps[wl.Name]
			jobs = append(jobs, planJob{
				key:  engine.Key{Device: "soc", Config: cfg.Name(), Workload: wl.Name, Seed: seed, Instr: b.instr},
				span: "soc.eval",
				run:  func() (any, error) { return soc.Evaluate(cfg, wl, b.instr, c) },
			})
		}
	}
	if _, err := run(jobs); err != nil {
		return err
	}

	var services []traffic.Service
	for _, name := range traffic.MixWorkloads() {
		cm, okC := cpuRes[compKey(coreCfgs[0], name)]
		tf, okT := cpuRes[compKey(coreCfgs[1], name)]
		if !okC || !okT {
			return fmt.Errorf("traffic mix workload %s has no soc component run", name)
		}
		svc, err := traffic.ServiceOf(cm, tf)
		if err != nil {
			return err
		}
		services = append(services, svc)
	}
	mix, err := soc.ParseConfig("c4t4g0")
	if err != nil {
		return err
	}
	jobs = jobs[:0]
	for _, tn := range traffic.TraceNames() {
		tr, err := traffic.TraceByName(tn)
		if err != nil {
			return err
		}
		for _, pn := range traffic.PolicyNames() {
			policy, err := traffic.PolicyByName(pn)
			if err != nil {
				return err
			}
			tr, policy := tr, policy
			jobs = append(jobs, planJob{
				key: engine.Key{Device: "traffic", Config: traffic.ScenarioName(mix, policy.Name()),
					Workload: tr.Name, Seed: seed, Instr: b.instr},
				span: "traffic.sim",
				run: func() (any, error) {
					return traffic.Simulate(traffic.SimOptions{SoC: mix, Policy: policy, Trace: tr,
						Services: services, Seed: seed})
				},
			})
		}
	}
	_, err = run(jobs)
	return err
}

// traced measures the per-layer metrics of a batch workload: one
// untraced reference pass, the same pass traced, then the re-drives.
func (b batchSpec) traced(e *env) (map[string]float64, error) {
	if err := b.setup(e); err != nil {
		return nil, err
	}
	warmDir := filepath.Join(e.scratch, "warm")
	var ref unit
	var refWarm []unit
	mem, err := measureMem(func() error {
		var err error
		ref, refWarm, err = b.pass(e, 0, warmDir, 1)
		return err
	})
	if err != nil {
		return nil, err
	}
	refWall := ref.wall + refWarm[0].wall
	checkExpected(e, ref.digests)
	printDigests(e, ref.digests)

	t := newTracer()
	tracedStart := time.Now()
	coldEng := engine.New(lanes, nil)
	var coldProbe *probeCache
	coldDir := filepath.Join(e.scratch, "traced-cold")
	if b.diskCold {
		dc, err := dist.OpenCache(coldDir, nil)
		if err != nil {
			return nil, err
		}
		coldProbe = &probeCache{inner: dc, tr: t}
		coldEng.SetCache(coldProbe)
	}
	if err := b.runPlan(e.seed, func(jobs []planJob) ([]any, error) { return t.runStage(coldEng, jobs, true) }); err != nil {
		return nil, err
	}
	checkSame(e, "traced cold unit vs untraced", t.render(e, b, coldEng), ref.digests)

	readDir := warmDir
	if b.diskCold {
		readDir = coldDir
	}
	dc, err := dist.OpenCache(readDir, nil)
	if err != nil {
		return nil, err
	}
	warmProbe := &probeCache{inner: dc, tr: t}
	warmEng := engine.New(lanes, nil)
	warmEng.SetCache(warmProbe)
	if err := b.runPlan(e.seed, func(jobs []planJob) ([]any, error) { return t.runStage(warmEng, jobs, false) }); err != nil {
		return nil, err
	}
	checkSame(e, "traced warm unit vs untraced", t.render(e, b, warmEng), ref.digests)
	e.tally.check(warmEng.JobsRun() == 0 && warmProbe.hits == warmProbe.gets,
		"traced warm unit: %d jobs ran, %d of %d reads hit", warmEng.JobsRun(), warmProbe.hits, warmProbe.gets)
	t.rec.end(t.root)
	tracedWall := time.Since(tracedStart).Seconds()

	var dv diskVals
	var puts, gets int
	for _, p := range []*probeCache{coldProbe, warmProbe} {
		if p != nil {
			dv.puts, dv.gets = append(dv.puts, p.vals.puts...), append(dv.gets, p.vals.gets...)
			puts, gets = puts+p.puts, gets+p.gets
		}
	}
	rd, err := redrive(e, t.cpuRuns, t.gpuRuns, dv, t.keys)
	if err != nil {
		return nil, err
	}
	spans := t.rec.closed()
	if err := writeChromeTrace(tracePath(e), "perfbench "+e.name, spans); err != nil {
		return nil, err
	}
	m := layerMetrics(t, spans, rd)
	m["trace_overhead_s"] = tracedWall - refWall
	m["runtime.alloc_mb"], m["runtime.gc_cycles"], m["runtime.gc_pause_s"] = mem.allocMB, mem.gcCycles, mem.gcPauseS

	jobs, memo, disk := float64(ref.jobsRun+refWarm[0].jobsRun), float64(ref.memoHits+refWarm[0].memoHits), float64(ref.diskHits+refWarm[0].diskHits)
	m["engine.jobs_run"], m["engine.memo_hits"], m["engine.disk_hits"] = jobs, memo, disk
	m["engine.memo_hit_share"] = share(memo, jobs+memo+disk)

	m["dist.puts"], m["dist.gets"] = float64(puts), float64(gets)
	m["dist.get_hit_ratio"] = share(float64(warmProbe.hits), float64(warmProbe.gets))
	for _, k := range []string{"dist.wire_ms", "dist.server_queue_ms", "dist.server_exec_ms", "dist.server_encode_ms", "dist.response_bytes"} {
		m[k] = 0
	}
	m["soc.over_budget_share"] = 0
	if b.name == "codesign" {
		in, over := soc.Partition(soc.DefaultSpace(), soc.DefaultBudget())
		m["soc.over_budget_share"] = share(float64(len(over)), float64(len(in)+len(over)))
	}
	return m, nil
}

func tracePath(e *env) string {
	return filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-s%d.json", e.name, e.seed))
}

// layerMetrics derives the span-based per-layer metrics shared by every
// workload from the spans and the re-drive totals.
func layerMetrics(t *tracer, spans []span, rd redriveTotals) map[string]float64 {
	total, self := layerTimes(spans)
	var queue float64
	for _, tm := range t.timings {
		queue += tm.QueueMS / 1e3
	}
	m := rd.metrics()
	m["harness.self_s"] = self["harness.exp"]
	m["engine.queue_s"] = queue
	m["engine.lane_idle_s"] = t.laneIdle
	m["soc.evals"], m["soc.busy_s"] = float64(t.sims["soc.eval"]), total["soc.eval"]
	m["soc.evals_per_s"] = rate(m["soc.evals"], m["soc.busy_s"])
	m["traffic.epochs"], m["traffic.busy_s"] = t.epochs, total["traffic.sim"]
	m["traffic.epochs_per_s"] = rate(t.epochs, total["traffic.sim"])
	m["unattributed_s"] = rootUnattributed(spans, t.root)
	return m
}
