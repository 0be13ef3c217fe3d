package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"

	"hetcore/internal/obs"
)

// span is one timed call into a layer's public function. Spans of one
// engine job or one HTTP request share a group id; parent is the id of
// the span whose call caused this one (0 for the root).
type span struct {
	id, parent, group int64
	name              string
	lo, hi            float64 // seconds since the recorder's origin
}

// recorder holds the spans of a traced run in memory until the run
// ends. A nil recorder records nothing, so the same code serves traced
// and untraced runs.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() float64 { return time.Since(r.origin).Seconds() }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, group int64) int64 {
	if r == nil {
		return 0
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{id: id, parent: parent, group: group, name: name, lo: t, hi: -1})
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int64) {
	if r == nil || id == 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id-1].hi = t
	r.mu.Unlock()
}

// closed returns the finished spans.
func (r *recorder) closed() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.hi >= s.lo {
			out = append(out, s)
		}
	}
	return out
}

// layerTimes sums, per span name, the total duration and the self time
// (duration minus what the span's children cover).
func layerTimes(spans []span) (total, self map[string]float64) {
	children := map[int64][]interval{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], interval{s.lo, s.hi})
		}
	}
	total, self = map[string]float64{}, map[string]float64{}
	for _, s := range spans {
		iv := interval{s.lo, s.hi}
		total[s.name] += iv.hi - iv.lo
		self[s.name] += selfTime(iv, children[s.id])
	}
	return total, self
}

// rootUnattributed is the root span's time during which no other span
// was open.
func rootUnattributed(spans []span, rootID int64) float64 {
	var root interval
	var rest []interval
	for _, s := range spans {
		if s.id == rootID {
			root = interval{s.lo, s.hi}
		} else {
			rest = append(rest, interval{s.lo, s.hi})
		}
	}
	return unattributed(root, rest)
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (the
// format hetcore -trace-out writes), one thread per group so each job's
// spans nest on their own track.
func writeChromeTrace(path, process string, spans []span) error {
	tw := obs.NewTraceWriter()
	pid := tw.NextPID()
	tw.ProcessName(pid, process)
	named := map[int64]bool{}
	for _, s := range spans {
		if !named[s.group] {
			named[s.group] = true
			tw.ThreadName(pid, s.group, fmt.Sprintf("group %d", s.group))
		}
		tw.Complete(pid, s.group, s.name, "perfbench", s.lo*1e6, (s.hi-s.lo)*1e6,
			map[string]any{"id": s.id, "parent": s.parent, "group": s.group})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := tw.WriteJSON(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
