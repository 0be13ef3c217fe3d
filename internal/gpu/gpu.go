package gpu

import (
	"fmt"

	"hetcore/internal/cache"
	"hetcore/internal/prof"
	"hetcore/internal/trace"
)

// instClass classifies a wavefront instruction.
type instClass int

const (
	classFMA instClass = iota
	classMem
	classScalar
)

// instDesc is a decoded wavefront instruction waiting to issue.
type instDesc struct {
	class   instClass
	depPrev bool // consumes the previous instruction's result
}

// wave is one resident wavefront's execution state.
type wave struct {
	remaining int
	// pending is the next decoded instruction (nil = not yet decoded).
	pending *instDesc
	decoded instDesc
	// readyAt is the earliest cycle the wavefront may issue again
	// (pipeline beat occupancy).
	readyAt int64
	// lastDone is when the previous instruction's result completes
	// (gates dependent instructions).
	lastDone int64
	rng      *trace.RNG
	// lastWasMem and rfDelay describe the most recently issued
	// instruction, for cycle attribution: whether it was a memory op,
	// and whether its register-file accesses occupied ports beyond one
	// cycle.
	lastWasMem bool
	rfDelay    bool
	// recent is the register-file cache state: the register ids of the
	// most recent distinct writes (6 entries per thread; the wavefront's
	// threads behave uniformly in this model).
	recent []uint16
	// streamAddr is the wavefront's private streaming cursor.
	streamAddr uint64
	base       uint64 // working-set base for this wavefront's CU
}

// computeUnit is one CU: a wavefront scheduler, SIMD pipelines and a
// private vector L1.
type computeUnit struct {
	id       int
	resident []*wave
	pending  []*wave
	vl1      *cache.Cache
	rr       int // round-robin scheduling cursor
	// wake is a lower bound on the next cycle any resident wave can
	// issue: the minimum, over waves with instructions left, of readyAt,
	// raised to lastDone when the decoded pending instruction depends on
	// the previous result. Until then a visit finds nothing to issue or
	// decode, so it only advances rr.
	wake int64
}

// Device is a GPU instance executing one kernel.
type Device struct {
	cfg    Config
	kern   Kernel
	cus    []*computeUnit
	l2     *cache.Cache
	dram   *cache.DRAM
	cycle  int64
	stats  Stats
	active int // unfinished waves

	// Periodic telemetry: sample fires with the cumulative Stats every
	// time the device clock crosses a multiple of sampleEvery.
	// nextSample is MaxInt64 when disarmed, so the run loop pays one
	// compare per cycle.
	sample      func(Stats)
	sampleEvery int64
	nextSample  int64

	// Host-cost stage profiling (internal/prof): on cycles that cross a
	// multiple of profEvery, lap is set to profLap for the duration of
	// the cycle and decode/memAccess/scheduler boundaries attribute
	// wall-time and heap-alloc deltas to it. profNext is MaxInt64 when
	// disarmed.
	profLap   *prof.Lap
	lap       *prof.Lap
	profEvery int64
	profNext  int64
}

// NewDevice builds a device for a kernel launch.
func NewDevice(cfg Config, kern Kernel, seed uint64) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := kern.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		cfg:        cfg,
		kern:       kern,
		active:     kern.Wavefronts,
		nextSample: int64(1) << 62,
		profNext:   int64(1) << 62,
	}
	var err error
	if d.l2, err = cache.New("gpu-l2", cfg.L2Size, cfg.L2Ways, cfg.LineSize); err != nil {
		return nil, err
	}
	if d.dram, err = cache.NewDRAM(cfg.DRAMRoundTripNS); err != nil {
		return nil, err
	}
	d.cus = make([]*computeUnit, cfg.CUs)
	for i := range d.cus {
		vl1, err := cache.New(fmt.Sprintf("vl1.%d", i), cfg.VL1Size, cfg.VL1Ways, cfg.LineSize)
		if err != nil {
			return nil, err
		}
		d.cus[i] = &computeUnit{id: i, vl1: vl1}
	}
	// Distribute wavefronts round-robin across CUs.
	for w := 0; w < kern.Wavefronts; w++ {
		cu := d.cus[w%cfg.CUs]
		wv := &wave{
			remaining: kern.InstsPerWave,
			rng:       trace.NewRNG(seed ^ hashName(kern.Name) ^ (uint64(w) * 0x9e3779b1)),
			// All wavefronts address the same kernel buffers; the
			// streaming region is private per wavefront.
			base:   uint64(1) << 40,
			recent: make([]uint16, 0, cfg.RFCacheEntries),
		}
		wv.streamAddr = uint64(2)<<40 + uint64(w)<<20
		if len(cu.resident) < cfg.MaxWavesPerCU {
			cu.resident = append(cu.resident, wv)
		} else {
			cu.pending = append(cu.pending, wv)
		}
	}
	return d, nil
}

func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Stats returns the device counters accumulated so far.
func (d *Device) Stats() Stats {
	s := d.stats
	s.Cycles = uint64(d.cycle)
	var vl1 cache.Stats
	for _, cu := range d.cus {
		st := cu.vl1.Stats()
		vl1.Reads += st.Reads
		vl1.ReadMisses += st.ReadMisses
		vl1.Writes += st.Writes
		vl1.WriteMisses += st.WriteMisses
	}
	s.VL1Reads = vl1.Accesses()
	s.VL1Misses = vl1.Misses()
	l2 := d.l2.Stats()
	s.L2Reads = l2.Accesses()
	s.L2Misses = l2.Misses()
	s.DRAMAccesses = d.dram.Accesses
	return s
}

// SetSampler arms periodic telemetry: fn is called with the cumulative
// Stats every time the device clock crosses a multiple of intervalCycles
// (at most once per crossing — a fast-forward skip over several
// intervals fires one sample). intervalCycles 0 or a nil fn disarms
// sampling.
func (d *Device) SetSampler(intervalCycles uint64, fn func(Stats)) {
	if intervalCycles == 0 || fn == nil {
		d.sample, d.sampleEvery, d.nextSample = nil, 0, int64(1)<<62
		return
	}
	d.sample = fn
	d.sampleEvery = int64(intervalCycles)
	d.nextSample = (d.cycle/d.sampleEvery + 1) * d.sampleEvery
}

// SetStageProf arms host-cost stage profiling: every time the device
// clock crosses a multiple of intervalCycles, that cycle's phase
// boundaries (decode, issue/scheduling, memory access) are timed into
// lap, which folds into its shared prof.Collector. intervalCycles 0 or
// a nil lap disarms profiling.
func (d *Device) SetStageProf(intervalCycles uint64, lap *prof.Lap) {
	if intervalCycles == 0 || lap == nil {
		d.profLap, d.profEvery, d.profNext = nil, 0, int64(1)<<62
		return
	}
	d.profLap = lap
	d.profEvery = int64(intervalCycles)
	d.profNext = (d.cycle/d.profEvery + 1) * d.profEvery
}

// maybeSample fires the telemetry callback if the clock crossed the next
// sampling boundary, then re-arms past the current cycle.
func (d *Device) maybeSample() {
	if d.cycle < d.nextSample {
		return
	}
	d.nextSample = (d.cycle/d.sampleEvery + 1) * d.sampleEvery
	d.sample(d.Stats())
}

// Run executes the kernel to completion and returns the final stats.
func (d *Device) Run() Stats {
	// Each wavefront occupies its SIMD pipeline for WavefrontSize/EUs
	// beats per instruction.
	beats := int64(WavefrontSize / d.cfg.EUsPerCU)
	if beats < 1 {
		beats = 1
	}
	for d.active > 0 {
		d.cycle++
		if d.cycle >= d.profNext {
			d.profNext = (d.cycle/d.profEvery + 1) * d.profEvery
			d.lap = d.profLap
			d.lap.Begin()
		}
		progressed := false
		for _, cu := range d.cus {
			if d.step(cu, beats) {
				progressed = true
			}
		}
		if progressed {
			d.stats.Attr.SIMDBusy++
		} else {
			d.fastForward()
		}
		if d.lap != nil {
			d.lap.Lap(prof.GPUIssue)
			d.lap = nil
		}
		d.maybeSample()
	}
	return d.Stats()
}

// step is one CU's cycle: it issues up to IssuePerCycle ready waves,
// scanning round-robin from the cursor, then retires finished waves and
// admits pending ones if anything issued. It reports whether a wave
// issued or was admitted. A CU whose wake bound is in the future skips
// the scan, which would find nothing, but still advances its cursor; the
// scan itself recomputes the bound from each wave's state after its turn.
func (d *Device) step(cu *computeUnit, beats int64) bool {
	n := len(cu.resident)
	if cu.wake > d.cycle || n == 0 {
		cu.rr++
		return false
	}
	wake := int64(1) << 62
	issued := 0
	i := cu.rr % n
	for k := 0; k < n; k++ {
		wv := cu.resident[i]
		if i++; i == n {
			i = 0
		}
		if wv.remaining == 0 {
			continue
		}
		if issued < d.cfg.IssuePerCycle && wv.readyAt <= d.cycle {
			d.decode(wv)
			// In-order issue: a dependent instruction waits for the
			// previous result.
			if !wv.pending.depPrev || wv.lastDone <= d.cycle {
				d.issue(cu, wv, beats)
				issued++
				if wv.remaining == 0 {
					continue
				}
			}
		}
		if at := wv.wakeAt(); at < wake {
			wake = at
		}
	}
	cu.rr++
	cu.wake = wake
	if issued == 0 {
		return false
	}
	d.retireAndAdmit(cu)
	return true
}

// wakeAt is the earliest cycle the wave can issue as far as its state
// shows: readyAt, or the previous result's completion when the decoded
// pending instruction depends on it.
func (wv *wave) wakeAt() int64 {
	if wv.pending != nil && wv.pending.depPrev && wv.lastDone > wv.readyAt {
		return wv.lastDone
	}
	return wv.readyAt
}

// retireAndAdmit drops the CU's finished waves (no instructions left and
// the last result landed), then fills free resident slots from the
// pending queue in launch order. An admitted wave can issue at once, so
// admission resets the CU's wake bound.
func (d *Device) retireAndAdmit(cu *computeUnit) {
	live := cu.resident[:0]
	for _, wv := range cu.resident {
		if wv.remaining == 0 && wv.readyAt <= d.cycle {
			d.active--
			continue
		}
		live = append(live, wv)
	}
	cu.resident = live
	for len(cu.resident) < d.cfg.MaxWavesPerCU && len(cu.pending) > 0 {
		cu.resident = append(cu.resident, cu.pending[0])
		cu.pending = cu.pending[1:]
		cu.wake = 0
	}
}

// fastForward jumps to the next cycle where any wavefront becomes ready,
// attributing the current and skipped cycles to the stall bucket of the
// wave that unblocks first.
func (d *Device) fastForward() {
	next := int64(1 << 62)
	var blocking *wave
	blockedByDep := false
	for _, cu := range d.cus {
		for _, wv := range cu.resident {
			if wv.remaining == 0 && wv.readyAt <= d.cycle {
				continue
			}
			cand := wv.readyAt
			dep := false
			if wv.pending != nil && wv.pending.depPrev && wv.lastDone > cand {
				cand = wv.lastDone
				dep = true
			}
			if cand > d.cycle && cand < next {
				next = cand
				blocking = wv
				blockedByDep = dep
			}
		}
	}
	if next == 1<<62 {
		d.stats.Attr.SchedIdle++ // end-of-kernel drain/retire cycle
		// Every resident wave is done and its last result has landed,
		// but none retired because nothing issued: retire them now.
		for _, cu := range d.cus {
			d.retireAndAdmit(cu)
		}
		return
	}
	// Current cycle plus every skipped one share the same wait cause.
	n := uint64(next-1-d.cycle) + 1
	d.cycle = next - 1
	switch {
	case blocking.lastWasMem:
		d.stats.Attr.MemWait += n
	case !blockedByDep && blocking.rfDelay:
		d.stats.Attr.RFConflict += n
	default:
		d.stats.Attr.SchedIdle += n
	}
}

// decode materialises the wavefront's next instruction if needed.
func (d *Device) decode(wv *wave) {
	if wv.pending != nil {
		return
	}
	// On profiled cycles the materialisation is frontend work: charge
	// the scheduling time so far to issue and the decode itself to fetch.
	if l := d.lap; l != nil {
		l.Lap(prof.GPUIssue)
		defer l.Lap(prof.GPUFetch)
	}
	k := &d.kern
	roll := wv.rng.Float64()
	var class instClass
	switch {
	case roll < k.FMAFrac:
		class = classFMA
	case roll < k.FMAFrac+k.MemFrac:
		class = classMem
	default:
		class = classScalar
	}
	wv.decoded = instDesc{class: class, depPrev: wv.rng.Bool(k.DepProb)}
	wv.pending = &wv.decoded
}

// issue executes one wavefront instruction.
func (d *Device) issue(cu *computeUnit, wv *wave, beats int64) {
	k := &d.kern
	cfg := &d.cfg
	class := wv.pending.class
	wv.pending = nil
	wv.remaining--
	d.stats.WaveInsts++

	start := d.cycle

	// Register file reads.
	nsrc := 1
	if class == classFMA {
		nsrc = 3 // fused multiply-add reads three operands
	}
	rfLat := int64(0)
	for s := 0; s < nsrc; s++ {
		var reg uint16
		if wv.rng.Bool(k.RegReuse) && len(wv.recent) > 0 {
			reg = wv.recent[wv.rng.Intn(len(wv.recent))]
		} else {
			reg = wv.pickReg()
		}
		d.stats.RFReads++
		lat := int64(cfg.RFLat)
		switch {
		case cfg.RFCache && wv.inRecent(reg):
			lat = int64(cfg.RFCacheLat)
			d.stats.RFCacheHits++
		case cfg.PartitionedRF && int(reg) < cfg.PartFastRegs:
			lat = int64(cfg.PartFastLat)
		}
		if lat > rfLat {
			rfLat = lat // operands read in parallel across banks
		}
	}

	// Execute.
	var execLat int64
	switch class {
	case classFMA:
		execLat = int64(cfg.FMALat)
		d.stats.FMAOps++
	case classScalar:
		execLat = 1
		d.stats.ScalarOps++
	case classMem:
		execLat = d.memAccess(cu, wv)
		d.stats.MemOps++
	}

	// Write back the destination register (allocates in the RF cache).
	dst := wv.pickReg()
	d.stats.RFWrites++
	if cfg.RFCache {
		wv.insertRecent(dst, cfg.RFCacheEntries)
		d.stats.RFCacheWrites++
	}
	wlat := int64(cfg.RFLat)
	if cfg.PartitionedRF && int(dst) < cfg.PartFastRegs {
		wlat = int64(cfg.PartFastLat)
	}

	done := start + rfLat + execLat
	wv.lastDone = done
	wv.lastWasMem = class == classMem
	wv.rfDelay = rfLat > 1 || wlat > 1
	occupancy := beats
	// A multi-cycle register file read occupies the operand-collector
	// ports and delays the wave's next issue: deeper pipelining restores
	// the clock, not the port bandwidth. RF-cache hits (1 cycle) restore
	// full issue rate on the read side — the Section IV-C3 recovery
	// mechanism. The writeback port pays the full RF latency either way
	// (the cache is write-through to the RF), which is why AdvHet does
	// not recover all of BaseHet's loss.
	occupancy += rfLat - 1
	occupancy += wlat - 1
	if class == classMem {
		// Divergent accesses keep the memory pipeline busy one beat per
		// extra line — divergence costs bandwidth, not just latency.
		occupancy += int64(k.Divergence - 1)
	}
	wv.readyAt = d.cycle + occupancy
	if wv.remaining == 0 && done > wv.readyAt {
		wv.readyAt = done // the wave retires only when its last result lands
	}
}

// memAccess performs the vector memory operation's cache accesses and
// returns its latency: the slowest of the Divergence line accesses, which
// pipeline behind one another at one per cycle.
func (d *Device) memAccess(cu *computeUnit, wv *wave) int64 {
	// On profiled cycles the cache walks are memory-phase work: charge
	// the issue time so far to issue and the accesses to mem.
	if l := d.lap; l != nil {
		l.Lap(prof.GPUIssue)
		defer l.Lap(prof.GPUMem)
	}
	k := &d.kern
	cfg := &d.cfg
	worst := int64(0)
	for i := 0; i < k.Divergence; i++ {
		var addr uint64
		if wv.rng.Bool(k.StreamFrac) {
			wv.streamAddr += uint64(cfg.LineSize)
			addr = wv.streamAddr
		} else {
			addr = wv.base + (wv.rng.Uint64() % k.WorkingSetBytes)
		}
		var lat int64
		if cu.vl1.Access(addr, false).Hit {
			lat = int64(cfg.VL1RT)
		} else if d.l2.Access(addr, false).Hit {
			lat = int64(cfg.L2RT)
		} else if cfg.DRAMFixedCycles > 0 {
			d.dram.Accesses++
			lat = int64(cfg.DRAMFixedCycles) + int64(cfg.L2RT)
		} else {
			lat = int64(d.dram.LatencyCycles(cfg.FreqGHz)) + int64(cfg.L2RT)
		}
		lat += int64(i) // pipelined issue of divergent accesses
		if lat > worst {
			worst = lat
		}
	}
	return worst
}

// pickReg draws a register id with the downward skew of compiler
// allocation: hot, frequently-accessed values live in low-numbered
// registers (this is what makes the partitioned RF viable).
func (w *wave) pickReg() uint16 {
	u := w.rng.Float64()
	r := uint16(u * u * 256)
	if r > 255 {
		r = 255
	}
	return r
}

func (w *wave) inRecent(reg uint16) bool {
	for _, r := range w.recent {
		if r == reg {
			return true
		}
	}
	return false
}

func (w *wave) insertRecent(reg uint16, capEntries int) {
	for i, r := range w.recent {
		if r == reg {
			// Move to MRU position.
			copy(w.recent[i:], w.recent[i+1:])
			w.recent[len(w.recent)-1] = reg
			return
		}
	}
	if len(w.recent) < capEntries {
		w.recent = append(w.recent, reg)
		return
	}
	copy(w.recent, w.recent[1:])
	w.recent[len(w.recent)-1] = reg
}
