package jobs

import (
	"sync"
	"time"
)

// Event is one progress observation of a running job. Events are
// monotonic: Seq strictly increases per job, and within one phase Done
// never decreases (the tracker clamps regressions rather than emitting
// them).
type Event struct {
	Seq   int    `json:"seq"`
	Phase string `json:"phase"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

// PhaseDuration records how long one phase of a job ran.
type PhaseDuration struct {
	Phase    string
	Duration time.Duration
}

// Progress tracks a job's {done, total, phase} state and fans events out
// to subscribers (the NDJSON event stream). It also times each phase for
// the scheduler's per-phase latency metrics.
type Progress struct {
	mu     sync.Mutex
	cur    Event
	closed bool
	subs   map[chan Event]struct{}

	phaseStart time.Time
	durations  []PhaseDuration
	now        func() time.Time // test seam
}

// NewProgress returns a tracker in phase "queued".
func NewProgress() *Progress {
	p := &Progress{subs: make(map[chan Event]struct{}), now: time.Now}
	p.cur = Event{Seq: 1, Phase: "queued"}
	p.phaseStart = p.now()
	return p
}

// Set advances the tracker to (phase, done, total) and broadcasts the
// event. Within an unchanged phase, done is clamped to be non-decreasing;
// a phase change restarts the done counter and closes the previous
// phase's duration. Set after Close, or on a nil Progress (a part run
// for a dist worker), is a no-op.
func (p *Progress) Set(phase string, done, total int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	if phase == p.cur.Phase {
		if done < p.cur.Done {
			done = p.cur.Done
		}
	} else {
		p.durations = append(p.durations, PhaseDuration{p.cur.Phase, p.now().Sub(p.phaseStart)})
		p.phaseStart = p.now()
	}
	p.cur = Event{Seq: p.cur.Seq + 1, Phase: phase, Done: done, Total: total}
	for ch := range p.subs {
		select {
		case ch <- p.cur:
		default:
			// A slow subscriber misses intermediate events; it still gets
			// the final state from Snapshot after the stream closes.
		}
	}
}

// Snapshot returns the current event.
func (p *Progress) Snapshot() Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cur
}

// Subscribe registers a live event feed. The returned channel first
// receives every future event (buffered; intermediate events may be
// dropped under backpressure, never the ordering) and is closed when the
// job reaches a terminal state. The cancel func unsubscribes early.
func (p *Progress) Subscribe() (<-chan Event, func()) {
	ch := make(chan Event, 64)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	p.subs[ch] = struct{}{}
	p.mu.Unlock()
	cancel := func() {
		p.mu.Lock()
		if _, ok := p.subs[ch]; ok {
			delete(p.subs, ch)
			close(ch)
		}
		p.mu.Unlock()
	}
	return ch, cancel
}

// Close finishes the last phase's timer and closes every subscriber
// channel. Idempotent.
func (p *Progress) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	p.durations = append(p.durations, PhaseDuration{p.cur.Phase, p.now().Sub(p.phaseStart)})
	for ch := range p.subs {
		delete(p.subs, ch)
		close(ch)
	}
}

// Durations returns the recorded per-phase durations (complete only after
// Close).
func (p *Progress) Durations() []PhaseDuration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]PhaseDuration(nil), p.durations...)
}
