package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"syscall"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer observations moves with a single
// outlier, so the benchmark refuses it instead of printing it.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of exact samples: the
// value at rank ceil(q*n) in ascending order. It refuses a percentile
// with fewer than minBeyond samples above its rank.
func quantile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, errors.New("quantile of no samples")
	}
	if !(q > 0 && q < 1) {
		return 0, fmt.Errorf("quantile %g outside (0,1)", q)
	}
	// The epsilon keeps q*n that is an integer in exact arithmetic
	// (0.99*1000) from rounding up one rank in floating point.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, beyond, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle of a small set of per-unit figures (the mean of
// the two middle values for an even count). Unlike quantile it accepts
// any non-empty set: it summarises repeated units, not a tail.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// interval is a closed-open stretch of host time, in seconds from an
// arbitrary origin.
type interval struct{ lo, hi float64 }

// covered returns how much of [lo,hi) the union of ivs covers. Members
// may overlap each other (children running on different goroutines)
// and may stick out of the window; only the part inside counts, once.
func covered(ivs []interval, lo, hi float64) float64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := math.Max(iv.lo, lo), math.Min(iv.hi, hi)
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	total, curLo, curHi := 0.0, 0.0, 0.0
	for i, iv := range clipped {
		switch {
		case i == 0:
			curLo, curHi = iv.lo, iv.hi
		case iv.lo > curHi:
			total += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
		case iv.hi > curHi:
			curHi = iv.hi
		}
	}
	if len(clipped) > 0 {
		total += curHi - curLo
	}
	return total
}

// selfTime is a span's duration minus the part of it its children
// cover.
func selfTime(span interval, children []interval) float64 {
	return (span.hi - span.lo) - covered(children, span.lo, span.hi)
}

// unattributed is the part of a run's root interval during which no
// layer span, at any depth and on any goroutine, was open.
func unattributed(root interval, layerSpans []interval) float64 {
	return selfTime(root, layerSpans)
}

// rate divides a count by the seconds it took, reading 0 when the layer
// did no work in this workload.
func rate(count, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return count / seconds
}

// share is part/whole, reading 0 for an empty whole.
func share(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return part / whole
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
