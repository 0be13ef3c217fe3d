package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"hetcore/internal/cache"
	"hetcore/internal/cpu"
	"hetcore/internal/dist"
	"hetcore/internal/engine"
	"hetcore/internal/gpu"
	"hetcore/internal/hetsim"
	"hetcore/internal/trace"
)

// Re-drives: the layers a simulation reaches only from inside
// hetsim.RunCPU / RunGPU and the disk cache are called again by the
// benchmark, on the same inputs, so each gets its own time. A CPU run is
// replayed with hetsim.RunCPU's driving loop (its warm-up share, chunked
// round-robin interleaving and quotas, copied below); its cycle and
// commit counts must equal the traced run's exactly or the re-drive
// fails, which also catches a change to that loop.

const (
	hetsimDefaultInstr = 400_000 // hetsim.RunOpts: TotalInstructions when 0
	hetsimWarmupDiv    = 8       // warm-up instructions per core = total/8
	hetsimChunk        = 4_000   // round-robin interleaving granularity
)

type cpuRun struct {
	cfg  hetsim.CPUConfig
	prof trace.Profile
	opts hetsim.RunOpts
	res  hetsim.CPUResult
}

type gpuRun struct {
	cfg  hetsim.GPUConfig
	kern gpu.Kernel
	seed uint64
	res  hetsim.GPUResult
}

// keyVal is one result the workload stored into or read from a disk
// cache.
type keyVal struct {
	key engine.Key
	val any
}

// diskVals are the results a workload's disk caches stored and read
// back, in call order.
type diskVals struct{ puts, gets []keyVal }

// redriveTotals sums the re-driven layers' work and host time.
type redriveTotals struct {
	hetsimS            float64 // hetsim.RunCPU/RunGPU run again whole
	traceInsts, traceS float64
	repeatInsts        float64
	cpuInsts           float64
	coreCacheS         float64 // the pipeline with its hierarchy, fed from memory
	cacheAccesses      float64
	cacheS             float64
	gpuWaveInsts, gpuS float64
	putS, getS         float64
	encodeS, decodeS   float64
	bytes              float64
	engineUSPerJob     float64
}

func (r redriveTotals) metrics() map[string]float64 {
	cpuSelf := r.coreCacheS - r.cacheS
	return map[string]float64{
		"trace.insts":                r.traceInsts,
		"trace.busy_s":               r.traceS,
		"trace.insts_per_s":          rate(r.traceInsts, r.traceS),
		"trace.repeat_share":         share(r.repeatInsts, r.traceInsts),
		"cpu.insts":                  r.cpuInsts,
		"cpu.self_s":                 cpuSelf,
		"cpu.insts_per_s":            rate(r.cpuInsts, cpuSelf),
		"cache.accesses":             r.cacheAccesses,
		"cache.busy_s":               r.cacheS,
		"cache.accesses_per_s":       rate(r.cacheAccesses, r.cacheS),
		"gpu.wave_insts":             r.gpuWaveInsts,
		"gpu.busy_s":                 r.gpuS,
		"gpu.wave_insts_per_s":       rate(r.gpuWaveInsts, r.gpuS),
		"hetsim.self_s":              r.hetsimS - r.traceS - r.coreCacheS - r.gpuS,
		"dist.put_s":                 r.putS,
		"dist.get_s":                 r.getS,
		"dist.encode_s":              r.encodeS,
		"dist.decode_s":              r.decodeS,
		"dist.bytes":                 r.bytes,
		"engine.overhead_us_per_job": r.engineUSPerJob,
	}
}

// streamID names one synthesized instruction stream: the generator's
// (profile, seed, core) triple fixes its contents.
type streamID struct {
	workload string
	seed     uint64
	core     int
}

// redrive re-drives every CPU and GPU simulation on `lanes` goroutines,
// then the disk cache, the codec and the engine one call at a time, and
// sums the results. Spans of these layers taken inside a burst of
// thousands of engine goroutines would count scheduler waits as layer
// time, so their busy times come from these sequential calls.
func redrive(e *env, cpus []*cpuRun, gpus []*gpuRun, disk diskVals, engineKeys []engine.Key) (redriveTotals, error) {
	var tot redriveTotals
	var mu sync.Mutex
	longest := map[streamID]float64{}
	var firstErr error
	work := make(chan func() error)
	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fn := range work {
				if err := fn(); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, r := range cpus {
		r := r
		work <- func() error {
			s, err := redriveCPU(r)
			e.tally.check(err == nil, "cpu re-drive %s/%s: %v", r.cfg.Name, r.prof.Name, err)
			if err != nil {
				return nil
			}
			mu.Lock()
			defer mu.Unlock()
			tot.hetsimS += s.hetsimS
			tot.traceS += s.traceS
			tot.coreCacheS += s.coreCacheS
			tot.cacheS += s.cacheS
			tot.cpuInsts += s.committed
			tot.cacheAccesses += s.accesses
			for core, n := range s.streamLen {
				id := streamID{r.prof.Name, r.opts.Seed, core}
				tot.traceInsts += n
				tot.repeatInsts += min(n, longest[id])
				longest[id] = max(n, longest[id])
			}
			return nil
		}
	}
	for _, r := range gpus {
		r := r
		work <- func() error {
			runS, waves, secs, err := redriveGPU(r)
			e.tally.check(err == nil, "gpu re-drive %s/%s: %v", r.cfg.Name, r.kern.Name, err)
			mu.Lock()
			tot.hetsimS += runS
			tot.gpuWaveInsts += waves
			tot.gpuS += secs
			mu.Unlock()
			return nil
		}
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return tot, firstErr
	}
	var err error
	if tot.putS, tot.getS, err = redriveDisk(filepath.Join(e.scratch, "redrive-disk"), disk); err != nil {
		return tot, err
	}
	if tot.encodeS, tot.decodeS, tot.bytes, err = redriveCodec(disk); err != nil {
		return tot, err
	}
	tot.engineUSPerJob = redriveEngine(engineKeys)
	return tot, nil
}

// recSource feeds a core from a generator and keeps what it fed.
type recSource struct {
	g     *trace.Generator
	insts []trace.Inst
}

func (s *recSource) Next() trace.Inst {
	in := s.g.Next()
	s.insts = append(s.insts, in)
	return in
}

// sliceSource replays a recorded stream. Running past its end means the
// core asked for more instructions than in the recorded run.
type sliceSource struct {
	insts   []trace.Inst
	i       int
	overrun bool
}

func (s *sliceSource) Next() trace.Inst {
	if s.i >= len(s.insts) {
		s.overrun = true
		return trace.Inst{Op: trace.IntALU}
	}
	s.i++
	return s.insts[s.i-1]
}

// access is one memory-port call, logged in global order.
type access struct {
	addr uint64
	core int32
	kind uint8 // 0 fetch, 1 read, 2 write
}

// logPort forwards to the hierarchy and logs each access and its
// latency.
type logPort struct {
	h    *cache.Hierarchy
	core int
	log  *[]access
	lat  *uint64
}

func (p logPort) InstFetch(pc uint64) int {
	l := p.h.InstFetch(p.core, pc)
	*p.log = append(*p.log, access{pc, int32(p.core), 0})
	*p.lat += uint64(l)
	return l
}

func (p logPort) Read(addr uint64) int {
	l := p.h.Read(p.core, addr)
	*p.log = append(*p.log, access{addr, int32(p.core), 1})
	*p.lat += uint64(l)
	return l
}

func (p logPort) Write(addr uint64) int {
	l := p.h.Write(p.core, addr)
	*p.log = append(*p.log, access{addr, int32(p.core), 2})
	*p.lat += uint64(l)
	return l
}

// port is the plain forwarding port, as hetsim binds it.
type port struct {
	h    *cache.Hierarchy
	core int
}

func (p port) InstFetch(pc uint64) int { return p.h.InstFetch(p.core, pc) }
func (p port) Read(addr uint64) int    { return p.h.Read(p.core, addr) }
func (p port) Write(addr uint64) int   { return p.h.Write(p.core, addr) }

type cpuRedrive struct {
	hetsimS                    float64
	traceS, coreCacheS, cacheS float64
	committed, accesses        float64
	streamLen                  map[int]float64
}

// quotas returns hetsim.RunCPU's per-core measured quotas and warm-up.
func quotas(r *cpuRun) ([]uint64, uint64) {
	total := r.opts.TotalInstructions
	if total == 0 {
		total = hetsimDefaultInstr
	}
	n := r.cfg.Cores
	q := make([]uint64, n)
	parallel := float64(total) * (1 - r.prof.SerialFrac) / float64(n)
	for i := range q {
		q[i] = uint64(parallel)
	}
	q[0] += uint64(float64(total) * r.prof.SerialFrac)
	return q, total / hetsimWarmupDiv
}

// drive runs the cores as hetsim.RunCPU does and returns the measured
// region's slowest-core cycles and committed instructions.
func drive(cores []*cpu.Core, quota []uint64, warm uint64) (cycles, committed uint64) {
	interleave := func(rem []uint64) {
		for active := true; active; {
			active = false
			for i, c := range cores {
				if rem[i] == 0 {
					continue
				}
				active = true
				chunk := min(uint64(hetsimChunk), rem[i])
				c.Run(chunk)
				rem[i] -= chunk
			}
		}
	}
	w := make([]uint64, len(cores))
	for i := range w {
		w[i] = warm
	}
	interleave(w)
	snap := make([]cpu.Stats, len(cores))
	for i, c := range cores {
		snap[i] = c.Stats()
	}
	interleave(append([]uint64(nil), quota...))
	for i, c := range cores {
		d := c.Stats().Delta(snap[i])
		cycles = max(cycles, d.Cycles)
		committed += d.Committed
	}
	return cycles, committed
}

// redriveCPU re-drives one CPU run in five passes: (0) hetsim.RunCPU
// whole, timed, whose result must equal the traced one; (1) the cores on
// live generators with every stream and memory access logged, checked
// against the traced result; (2) the generators alone, timed, for trace
// synthesis; (3) the cores on the recorded streams with a fresh
// hierarchy, timed, for pipeline plus cache; (4) the access log replayed
// into a fresh hierarchy, timed, for the cache alone. hetsim's own time
// is what pass 0 spends beyond passes 2 and 3.
func redriveCPU(r *cpuRun) (cpuRedrive, error) {
	out := cpuRedrive{streamLen: map[int]float64{}}
	quota, warm := quotas(r)
	n := r.cfg.Cores

	t0 := time.Now()
	res, err := hetsim.RunCPU(r.cfg, r.prof, r.opts)
	out.hetsimS = time.Since(t0).Seconds()
	if err != nil {
		return out, err
	}
	if !reflect.DeepEqual(res, r.res) {
		return out, fmt.Errorf("hetsim.RunCPU run again differs from the traced result")
	}

	h, err := cache.NewHierarchy(r.cfg.Hier)
	if err != nil {
		return out, err
	}
	var log []access
	var lat uint64
	srcs := make([]*recSource, n)
	cores := make([]*cpu.Core, n)
	for i := range cores {
		g, err := trace.NewGenerator(r.prof, r.opts.Seed, i)
		if err != nil {
			return out, err
		}
		srcs[i] = &recSource{g: g}
		if cores[i], err = cpu.NewCore(r.cfg.Core, logPort{h, i, &log, &lat}, srcs[i]); err != nil {
			return out, err
		}
	}
	cycles, committed := drive(cores, quota, warm)
	if cycles != r.res.Cycles || committed != r.res.Instructions {
		return out, fmt.Errorf("re-driven %d cycles / %d insts, traced run %d / %d",
			cycles, committed, r.res.Cycles, r.res.Instructions)
	}
	for _, c := range cores {
		out.committed += float64(c.Stats().Committed)
	}

	t0 = time.Now()
	for i := range srcs {
		g, err := trace.NewGenerator(r.prof, r.opts.Seed, i)
		if err != nil {
			return out, err
		}
		for k := len(srcs[i].insts); k > 0; k-- {
			g.Next()
		}
	}
	out.traceS = time.Since(t0).Seconds()
	for i, s := range srcs {
		out.streamLen[i] = float64(len(s.insts))
	}

	t0 = time.Now()
	h2, err := cache.NewHierarchy(r.cfg.Hier)
	if err != nil {
		return out, err
	}
	feeds := make([]*sliceSource, n)
	for i := range cores {
		feeds[i] = &sliceSource{insts: srcs[i].insts}
		if cores[i], err = cpu.NewCore(r.cfg.Core, port{h2, i}, feeds[i]); err != nil {
			return out, err
		}
	}
	cycles2, committed2 := drive(cores, quota, warm)
	out.coreCacheS = time.Since(t0).Seconds()
	for _, f := range feeds {
		if f.overrun || f.i != len(f.insts) {
			return out, fmt.Errorf("replayed stream used %d of %d recorded instructions", f.i, len(f.insts))
		}
	}
	if cycles2 != cycles || committed2 != committed {
		return out, fmt.Errorf("replay from recorded streams gave %d cycles / %d insts, want %d / %d",
			cycles2, committed2, cycles, committed)
	}

	t0 = time.Now()
	h3, err := cache.NewHierarchy(r.cfg.Hier)
	if err != nil {
		return out, err
	}
	var lat3 uint64
	for _, a := range log {
		switch a.kind {
		case 0:
			lat3 += uint64(h3.InstFetch(int(a.core), a.addr))
		case 1:
			lat3 += uint64(h3.Read(int(a.core), a.addr))
		default:
			lat3 += uint64(h3.Write(int(a.core), a.addr))
		}
	}
	out.cacheS = time.Since(t0).Seconds()
	if lat3 != lat {
		return out, fmt.Errorf("cache replay latency sum %d, logged %d", lat3, lat)
	}
	out.accesses = float64(len(log))
	return out, nil
}

// redriveGPU runs hetsim.RunGPU whole and then the device alone, timing
// each; both must reproduce the traced run.
func redriveGPU(r *gpuRun) (runS, waveInsts, secs float64, err error) {
	t0 := time.Now()
	res, err := hetsim.RunGPU(r.cfg, r.kern, r.seed)
	runS = time.Since(t0).Seconds()
	if err != nil {
		return 0, 0, 0, err
	}
	if !reflect.DeepEqual(res, r.res) {
		return 0, 0, 0, fmt.Errorf("hetsim.RunGPU run again differs from the traced result")
	}
	t0 = time.Now()
	d, err := gpu.NewDevice(r.cfg.Dev, r.kern, r.seed)
	if err != nil {
		return 0, 0, 0, err
	}
	s := d.Run()
	secs = time.Since(t0).Seconds()
	if s.Cycles != r.res.Cycles || s.WaveInsts != r.res.WaveInsts {
		return 0, 0, 0, fmt.Errorf("re-driven %d cycles / %d wave insts, traced run %d / %d",
			s.Cycles, s.WaveInsts, r.res.Cycles, r.res.WaveInsts)
	}
	return runS, float64(s.WaveInsts), secs, nil
}

// redriveDisk stores the workload's stored results into a fresh disk
// cache and reads back what it read, one call at a time. Results the
// workload only read are stored first, untimed.
func redriveDisk(dir string, v diskVals) (putS, getS float64, err error) {
	defer os.RemoveAll(dir)
	dc, err := dist.OpenCache(dir, nil)
	if err != nil {
		return 0, 0, err
	}
	stored := map[engine.Key]bool{}
	t0 := time.Now()
	for _, kv := range v.puts {
		dc.Put(kv.key, kv.val)
		stored[kv.key] = true
	}
	putS = time.Since(t0).Seconds()
	for _, kv := range v.gets {
		if !stored[kv.key] {
			dc.Put(kv.key, kv.val)
		}
	}
	t0 = time.Now()
	for _, kv := range v.gets {
		if _, ok := dc.Get(kv.key); !ok {
			return 0, 0, fmt.Errorf("disk re-drive: %s did not read back", kv.key)
		}
	}
	return putS, time.Since(t0).Seconds(), nil
}

// redriveEngine sends the workload's engine calls, key for key, through
// a fresh engine one at a time with jobs that return at once: the
// engine's own cost per call.
func redriveEngine(keys []engine.Key) float64 {
	if len(keys) == 0 {
		return 0
	}
	eng := engine.New(lanes, nil)
	t0 := time.Now()
	for i, k := range keys {
		eng.Do(k, func() (any, error) { return i, nil }) //nolint:errcheck // the job cannot fail
	}
	return time.Since(t0).Seconds() / float64(len(keys)) * 1e6
}

// redriveCodec encodes every stored result and decodes every result read
// back, timing each direction; bytes counts the encoded payloads.
func redriveCodec(v diskVals) (encS, decS, bytes float64, err error) {
	t0 := time.Now()
	for _, kv := range v.puts {
		_, data, err := dist.EncodeResult(kv.val)
		if err != nil {
			return 0, 0, 0, err
		}
		bytes += float64(len(data))
	}
	encS = time.Since(t0).Seconds()
	for _, kv := range v.gets {
		name, data, err := dist.EncodeResult(kv.val)
		if err != nil {
			return 0, 0, 0, err
		}
		bytes += float64(len(data))
		t1 := time.Now()
		if _, err := dist.DecodeResult(name, data); err != nil {
			return 0, 0, 0, err
		}
		decS += time.Since(t1).Seconds()
	}
	return encS, decS, bytes, nil
}
