package dist

import (
	"fmt"

	"hetcore/internal/engine"
	"hetcore/internal/hetsim"
	"hetcore/internal/obs"
	"hetcore/internal/trace"
)

// The soc package registers its runner with hetsim from package init;
// the codec's import of it (codec.go) makes "soc/..." keys resolvable
// on daemons too.

// Resolve maps a stock engine key back to the simulation it denotes, so
// a daemon that received only the key can execute the job. Device keys
// go through the hetsim runner registry — any registered device kind
// resolves the same way:
//
//	cpu/<config>/<workload>/s<seed>/i<instr>   hetsim.RunCPU
//	gpu/<config>/<kernel>/s<seed>/i0           hetsim.RunGPU
//	cmp/HeteroCMP[-nomig]/<workload>/...       hetsim.RunHeteroCMP
//	soc/c<N>t<M>g<K>/<workload>/...            soc composition
//	trace/stats/<workload>/.../core=<n>        trace.Summarize
//
// Keys carrying variants (sweeps, DVFS operating points) mutate their
// config out-of-band and return ok=false: they must execute in the
// process that built them. Devices whose results ignore the instruction
// budget (InstrInKey == false) only resolve with Instr pinned to 0. o
// receives the executing side's telemetry.
func Resolve(k engine.Key, o *obs.Observer) (func() (any, error), bool) {
	fn, why := resolve(k, o)
	return fn, why == ""
}

// resolve is Resolve that, for a key it cannot reconstruct, says why
// instead: the daemon's 422 body carries the reason.
func resolve(k engine.Key, o *obs.Observer) (func() (any, error), string) {
	if r, ok := hetsim.RunnerFor(k.Device); ok {
		switch {
		case k.Variant != "":
			return nil, "variant keys execute locally"
		case !r.InstrInKey && k.Instr != 0:
			return nil, fmt.Sprintf("%s results have no instruction count; Instr must be 0", k.Device)
		case !r.HasConfig(k.Config):
			return nil, fmt.Sprintf("unknown %s config %q", k.Device, k.Config)
		case !r.HasWorkload(k.Workload):
			return nil, fmt.Sprintf("unknown %s workload %q", k.Device, k.Workload)
		}
		return func() (any, error) {
			res, err := r.Run(k.Config, k.Workload, hetsim.RunOpts{
				TotalInstructions: k.Instr, Seed: k.Seed, Obs: o})
			if err != nil {
				return nil, err
			}
			return res, nil
		}, ""
	}
	if k.Device == "trace" {
		if k.Config != "stats" {
			return nil, fmt.Sprintf("unknown trace config %q", k.Config)
		}
		var core int
		if n, err := fmt.Sscanf(k.Variant, "core=%d", &core); n != 1 || err != nil {
			return nil, fmt.Sprintf("trace variant %q is not core=<n>", k.Variant)
		}
		prof, err := trace.CPUWorkload(k.Workload)
		if err != nil {
			return nil, fmt.Sprintf("unknown trace workload %q", k.Workload)
		}
		return func() (any, error) {
			g, err := trace.NewGenerator(prof, k.Seed, core)
			if err != nil {
				return nil, err
			}
			return trace.Summarize(g, k.Instr), nil
		}, ""
	}
	return nil, fmt.Sprintf("unknown device %q", k.Device)
}

// Resolvable reports whether Resolve can reconstruct the job for k —
// i.e. whether the key may execute on a remote worker.
func Resolvable(k engine.Key) bool {
	_, ok := Resolve(k, nil)
	return ok
}
