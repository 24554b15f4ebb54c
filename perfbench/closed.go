package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"jayanti98/internal/sweep"
)

// A closed-loop workload runs checked ops back to back on one goroutine:
// the next op starts when the previous one returns. Ops come in cycles;
// each cycle holds every op kind `weight` times, in an order drawn from
// the seed, and the run only stops at a cycle boundary. Every run
// therefore has the same op mix, and the pooled latency percentiles land
// at fixed places in it (see the kind weights of each workload).

// opKind is one kind of checked op.
type opKind struct {
	name   string
	weight int
	// run executes op number i (its inputs derive from the workload seed
	// and i) under span parent and checks the output against its exact
	// reference; a non-nil error marks the op failed.
	run func(tr *tracer, parent int, i int) (opOut, error)
}

// opOut is what a checked op reports besides its latency.
type opOut struct {
	steps     int64 // simulated shared-memory steps
	runs      int64 // exhaustive DFS runs (explore.Report.Runs)
	states    int64 // exhaustive memoized states
	truncated int64 // exhaustive runs cut by the step budget
}

// opRec is one executed op.
type opRec struct {
	kind   int
	ms     float64
	out    opOut
	err    error
	allocs uint64 // traced runs only
	bytes  uint64 // traced runs only
}

// cycleOrder returns cycle c's op kinds: every kind weight times, in a
// seeded order.
func cycleOrder(kinds []opKind, seed int64, c int) []int {
	var order []int
	for k, kind := range kinds {
		for j := 0; j < kind.weight; j++ {
			order = append(order, k)
		}
	}
	rng := rand.New(rand.NewSource(sweep.Derive(seed, c)))
	rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	return order
}

// closedPhase is the outcome of running whole cycles for a while.
type closedPhase struct {
	recs    []opRec
	elapsed time.Duration
	cycles  []cycleStat
}

// cycleStat is one cycle's totals. Rates and the heap peak are reported
// as medians over cycles, so a burst of host slowness inside a run moves
// them less than a mean over the run would.
type cycleStat struct {
	ms     float64 // the whole cycle
	steps  float64 // simulated steps of the ops that report them…
	stepMS float64 // …and those ops' time
	peakMB float64 // peak in-use heap during the cycle
}

// runCycles runs whole cycles, at least one, until d has passed,
// starting at cycle c0 and op index i0. With tr set, every op is a span
// and its allocations are counted.
func runCycles(kinds []opKind, seed int64, c0, i0 int, d time.Duration, tr *tracer) closedPhase {
	heap := startHeapSampler()
	defer heap.stop()
	var ph closedPhase
	var ms runtime.MemStats
	start := time.Now()
	i := i0
	for c := c0; c == c0 || time.Since(start) < d; c++ {
		var cs cycleStat
		heap.reset()
		cycleStart := time.Now()
		for _, k := range cycleOrder(kinds, seed, c) {
			rec := opRec{kind: k}
			if tr != nil {
				runtime.ReadMemStats(&ms)
				rec.allocs, rec.bytes = ms.Mallocs, ms.TotalAlloc
			}
			t0 := time.Now()
			id := tr.start(0, kinds[k].name)
			rec.out, rec.err = kinds[k].run(tr, id, i)
			tr.end(id)
			rec.ms = float64(time.Since(t0).Nanoseconds()) / 1e6
			if tr != nil {
				runtime.ReadMemStats(&ms)
				rec.allocs, rec.bytes = ms.Mallocs-rec.allocs, ms.TotalAlloc-rec.bytes
			}
			if rec.out.steps > 0 {
				cs.steps += float64(rec.out.steps)
				cs.stepMS += rec.ms
			}
			ph.recs = append(ph.recs, rec)
			i++
		}
		cs.ms = float64(time.Since(cycleStart).Nanoseconds()) / 1e6
		cs.peakMB = heap.peakMB()
		ph.cycles = append(ph.cycles, cs)
	}
	ph.elapsed = time.Since(start)
	return ph
}

// heapSampler samples the in-use heap every 2 ms on its own goroutine
// and keeps the peak since the last reset.
type heapSampler struct {
	peak atomic.Uint64
	done chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

func (h *heapSampler) reset() { h.peak.Store(0) }

// peakMB returns the peak since the last reset, in MB, including the heap now.
func (h *heapSampler) peakMB() float64 {
	h.sample()
	return float64(h.peak.Load()) / 1e6
}

func (h *heapSampler) stop() {
	close(h.done)
	h.wg.Wait()
}

// failures counts the failed ops of recs and returns the first error.
func failures(recs []opRec) (int, error) {
	n := 0
	var first error
	for _, r := range recs {
		if r.err != nil {
			if first == nil {
				first = r.err
			}
			n++
		}
	}
	return n, first
}

// closedEndToEnd computes the end-to-end metrics of an untraced phase.
// Latency percentiles pool every op; rates and the heap peak are medians
// over cycles. Simulated steps per second counts only ops that report
// steps, over those ops' own time.
func closedEndToEnd(ph closedPhase, setupS float64) (map[string]float64, []string, error) {
	lat := make([]float64, len(ph.recs))
	for i, r := range ph.recs {
		lat[i] = r.ms
	}
	p50, err := percentile(lat, 50)
	if err != nil {
		return nil, nil, err
	}
	p90, err := percentile(lat, 90)
	if err != nil {
		return nil, nil, err
	}
	opsPerCycle := float64(len(ph.recs) / len(ph.cycles))
	var cycleS, stepRate, peak []float64
	for _, c := range ph.cycles {
		cycleS = append(cycleS, c.ms/1000)
		stepRate = append(stepRate, c.steps/(c.stepMS/1000))
		peak = append(peak, c.peakMB)
	}
	m := map[string]float64{
		"setup_s":         setupS,
		"ops_per_s":       opsPerCycle / median(cycleS),
		"op_ms_p50":       p50.Value,
		"op_ms_p90":       p90.Value,
		"sim_steps_per_s": median(stepRate),
		"peak_heap_mb":    median(peak),
	}
	notes := []string{
		fmt.Sprintf("ops=%d cycles=%d elapsed=%.3fs", len(ph.recs), len(ph.cycles), ph.elapsed.Seconds()),
		fmt.Sprintf("op_ms_p50 from %d samples, op_ms_p90 from %d samples; rates and heap peak are medians of %d cycles", p50.Samples, p90.Samples, len(ph.cycles)),
	}
	return m, notes, nil
}

// kindMedians returns each kind's median latency, for the stderr report
// that shows where the pooled percentiles fall.
func kindMedians(kinds []opKind, recs []opRec) []string {
	by := make([][]float64, len(kinds))
	for _, r := range recs {
		by[r.kind] = append(by[r.kind], r.ms)
	}
	var lines []string
	for k, kind := range kinds {
		if len(by[k]) > 0 {
			lo, hi := slices.Min(by[k]), slices.Max(by[k])
			lines = append(lines, fmt.Sprintf("%-46s n=%-4d min=%7.2fms median=%7.2fms max=%7.2fms", kind.name, len(by[k]), lo, median(by[k]), hi))
		}
	}
	sort.Strings(lines)
	return lines
}

// closedRun is a closed-loop workload's full run: repeated set-up, then
// the timed phase, untraced or traced.
type closedRun struct {
	kinds []opKind
	// setup prepares the workload once (inputs, warm-up ops); it is run
	// setupReps times and the median is setup_s.
	setup func() error
	// layers fills the per-layer metrics of a traced phase; probes run
	// after the timed window, outside every end-to-end number.
	layers func(ph closedPhase, tr *tracer, m map[string]float64) error
}

// setupReps is how many times each run sets up, so setup_s is a median.
const setupReps = 5

func timeSetups(setup func() error) (float64, error) {
	var ts []float64
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

func (w closedRun) run(o options) (*result, error) {
	setupS, err := timeSetups(w.setup)
	if err != nil {
		return nil, err
	}
	d := time.Duration(o.seconds) * time.Second
	if !o.trace {
		ph := runCycles(w.kinds, o.seed, 0, 0, d, nil)
		for _, line := range kindMedians(w.kinds, ph.recs) {
			logf("%s", line)
		}
		m, notes, err := closedEndToEnd(ph, setupS)
		if err != nil {
			return nil, err
		}
		failed, first := failures(ph.recs)
		res := newResult(len(ph.recs), failed, first, m)
		res.notes = notes
		return res, nil
	}

	// Traced run: an untraced quarter first, as the base the tracing
	// overhead is measured against, then the traced rest.
	base := runCycles(w.kinds, o.seed, 0, 0, d/4, nil)
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	i0 := len(base.recs)
	ph := runCycles(w.kinds, o.seed, len(base.cycles), i0, d-d/4, tr)
	pprof.StopCPUProfile()
	m := map[string]float64{}
	if err := foldShares(prof.Bytes(), m); err != nil {
		return nil, err
	}
	overheadPct := 100 * (ph.elapsed.Seconds()/float64(len(ph.cycles))/(base.elapsed.Seconds()/float64(len(base.cycles))) - 1)
	m["trace.overhead_pct"] = overheadPct
	var bytes float64
	for _, r := range ph.recs {
		bytes += float64(r.bytes)
	}
	m["runtime.alloc_mb_per_op"] = bytes / float64(len(ph.recs)) / 1e6
	recs := append(base.recs, ph.recs...)
	failed, first := failures(recs)
	m["error_rate"] = float64(failed) / float64(len(recs))
	if err := w.layers(ph, tr, m); err != nil {
		return nil, err
	}
	path, err := o.writeSpans(tr)
	if err != nil {
		return nil, err
	}
	logf("spans written to %s; tracing overhead %.2f%%", path, overheadPct)
	return newResult(len(recs), failed, first, m), nil
}
