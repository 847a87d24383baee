package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own calls. Spans of one job or request share a trace id; Parent
// links a span to the span that caused it (0 for none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Name   string `json:"name"`
	// Start and End are offsets from the tracer's creation.
	Start time.Duration `json:"startNs"`
	End   time.Duration `json:"endNs"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans and counters in memory until the run ends. A nil
// *tracer records nothing, so untraced code paths cost one nil check.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	spans    []span
	counters map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counters: make(map[string]float64)}
}

// record stores a finished span and returns its id (0 on a nil tracer).
func (t *tracer) record(name, trace string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0),
	})
	return id
}

// open starts a span that end finishes, so a parent can be opened before
// its children are recorded. It returns 0 on a nil tracer.
func (t *tracer) open(name, trace string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.record(name, trace, parent, now, now)
}

// end finishes a span started by open.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// time runs f inside a span and returns f's error.
func (t *tracer) time(name, trace string, parent int64, f func() error) error {
	if t == nil {
		return f()
	}
	start := time.Now()
	err := f()
	t.record(name, trace, parent, start, time.Now())
	return err
}

// count adds delta to a named counter.
func (t *tracer) count(name string, delta float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counters[name] += delta
}

// durations returns the durations, in unit, of every span called name.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}

func (t *tracer) counter(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// selfTimes maps every span id to its self time: its duration minus the
// part of its interval that its children cover. Overlapping children are
// merged first, so concurrent children are not subtracted twice, and a
// child's time outside its parent's interval is ignored.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to
// parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// selfByName sums self time per span name, in milliseconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / float64(time.Millisecond)
	}
	return out
}

// traceFile is what a traced run writes when it ends.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Spans    []span             `json:"spans"`
	Counters map[string]float64 `json:"counters"`
	SelfMS   map[string]float64 `json:"selfMs"`
	// Derived holds layer shares computed from probe ns/op times calls per
	// round: labelled derived, because nothing measured them in place.
	Derived  map[string]float64 `json:"derived"`
	Overhead map[string]float64 `json:"tracingOverhead"`
}

func (t *tracer) write(path string, tf traceFile) error {
	t.mu.Lock()
	tf.Spans = append([]span(nil), t.spans...)
	tf.Counters = t.counters
	t.mu.Unlock()
	tf.SelfMS = selfByName(tf.Spans)
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
