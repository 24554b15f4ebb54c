package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public
// function. Parent is the id of the span that caused it (0: an op root).
// Times are microseconds since the tracer started.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartUS float64 `json:"startUs"`
	EndUS   float64 `json:"endUs"`
}

func (s span) ms() float64 { return (s.EndUS - s.StartUS) / 1000 }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so workloads call it
// unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent and returns its id.
func (t *tracer) start(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := float64(time.Since(t.t0).Nanoseconds()) / 1000
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartUS: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := float64(time.Since(t.t0).Nanoseconds()) / 1000
	t.mu.Lock()
	t.spans[id-1].EndUS = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(parent int, name string, f func()) {
	id := t.start(parent, name)
	f()
	t.end(id)
}

// spanStats is the per-name aggregate of the recorded spans.
type spanStats struct {
	Count   int
	TotalMS float64
	SelfMS  float64 // total minus the time its (sequential) children cover
	Times   []float64
}

func (t *tracer) stats() map[string]*spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.ms()
		}
	}
	out := make(map[string]*spanStats)
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.Count++
		st.TotalMS += s.ms()
		st.SelfMS += max(s.ms()-child[s.ID], 0)
		st.Times = append(st.Times, s.ms())
	}
	return out
}

// summary returns one line per span name: count, total and self time,
// for the traced run's log.
func (t *tracer) summary() []string {
	stats := t.stats()
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	lines := make([]string, len(names))
	for i, name := range names {
		st := stats[name]
		lines[i] = fmt.Sprintf("span %-44s n=%-5d total=%10.1fms self=%10.1fms", name, st.Count, st.TotalMS, st.SelfMS)
	}
	return lines
}

// medianMS is the median duration of the spans called name (0 if none).
func (t *tracer) medianMS(name string) float64 {
	if st := t.stats()[name]; st != nil {
		return median(st.Times)
	}
	return 0
}

// write stores every span as JSON at path and logs the summary.
func (t *tracer) write(path string) error {
	for _, line := range t.summary() {
		logf("%s", line)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
