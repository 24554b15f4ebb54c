// Package obs is the repo's zero-dependency observability substrate:
//
//   - a metrics registry of atomic counters, gauges, and fixed-bucket
//     histograms with a JSON snapshot and Prometheus-style text
//     exposition (metrics.go);
//   - lightweight tracing — context-propagated spans with parent/child
//     links and per-span attributes, exported into an in-memory ring
//     buffer queryable as JSON span trees (trace.go);
//   - structured logging over log/slog with per-request and per-job
//     correlation IDs carried in the context (log.go);
//   - net/http middleware and the /metrics and /debug/traces handlers
//     that expose all of the above (http.go).
//
// Everything is safe for concurrent use and cheap enough for hot paths:
// a counter increment is one atomic add, a histogram observation is two
// atomic adds plus a branch-free bucket search, and a span outside any
// tracer context is a no-op.
//
// The package deliberately speaks the Prometheus text format without
// importing any client library, the same way internal/jobs speaks HTTP
// without a framework: the format is tiny, and the repo's determinism
// contracts make hand-rolled exposition easy to golden-test.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is an immutable-by-convention label set attached to a metric at
// creation. Identity of a metric is (name, sorted labels): asking the
// registry for the same (name, labels) pair always returns the same
// instance, which is what lets several schedulers in one test process
// share a registry the way expvar shares its process-global names.
type Labels map[string]string

// MetricType enumerates the exposition types.
type MetricType string

// The metric types of the exposition format.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// DefBuckets are the default histogram bucket upper bounds, in seconds —
// the conventional latency ladder from 5ms to 10s.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Counter is a monotonically increasing metric. The zero value is unusable;
// obtain counters from a Registry.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is a programming error and is ignored — counters
// never go down).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The zero value is unusable;
// obtain gauges from a Registry.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Buckets are cumulative at
// exposition time (Prometheus `le` semantics) but stored per-interval, so
// Observe touches exactly one bucket counter plus the sum and count.
type Histogram struct {
	// upper[i] is the inclusive upper bound of bucket i; the final
	// +Inf bucket is implicit (counts has one more slot than upper).
	upper   []float64
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(buckets []float64) *Histogram {
	ups := append([]float64(nil), buckets...)
	sort.Float64s(ups)
	// Drop duplicates and any +Inf the caller passed; +Inf is implicit.
	dst := ups[:0]
	for i, b := range ups {
		if math.IsInf(b, +1) || (i > 0 && b == ups[i-1]) {
			continue
		}
		dst = append(dst, b)
	}
	ups = dst
	return &Histogram{upper: ups, counts: make([]atomic.Uint64, len(ups)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper ≥ v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// BucketCount is one cumulative histogram bucket in a snapshot.
type BucketCount struct {
	// Upper is the bucket's inclusive upper bound; +Inf for the last.
	Upper float64 `json:"upper"`
	// Count is the cumulative number of observations ≤ Upper.
	Count uint64 `json:"count"`
}

// cumulative snapshots the buckets with Prometheus cumulative semantics.
func (h *Histogram) cumulative() []BucketCount {
	out := make([]BucketCount, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		up := math.Inf(+1)
		if i < len(h.upper) {
			up = h.upper[i]
		}
		out[i] = BucketCount{Upper: up, Count: cum}
	}
	return out
}

// metric is one registered instance.
type metric struct {
	name   string
	labels Labels
	key    string // name + rendered labels; registry map key

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // Func metrics; read at snapshot time
}

// family is the per-name metadata shared by all label variants.
type family struct {
	typ  MetricType
	help string
}

// Registry is a set of named metrics. The zero value is not usable; use
// NewRegistry or the process Default registry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	metrics  map[string]*metric
	order    []*metric // registration order; exposition sorts anyway
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family), metrics: make(map[string]*metric)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry, the one cmd/lbserver exposes
// on /metrics and the instrumented packages (jobs, sweep, lowerbound) use
// unless given their own.
func Default() *Registry { return defaultRegistry }

// renderLabels produces the canonical `{k="v",...}` suffix (sorted keys,
// escaped values), or "" for no labels. Doubles as the identity key suffix.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup finds or creates the metric for (name, labels), enforcing one
// type and help per name. Type mismatch on a live name is a programming
// error and panics, as the Prometheus client does.
func (r *Registry) lookup(name, help string, typ MetricType, labels Labels, mk func() *metric) *metric {
	key := name + renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("obs: metric %q redeclared as %s (was %s)", name, typ, f.typ))
		}
		if f.help == "" {
			f.help = help
		}
	} else {
		r.families[name] = &family{typ: typ, help: help}
	}
	if m, ok := r.metrics[key]; ok {
		return m
	}
	m := mk()
	m.name, m.key = name, key
	if len(labels) > 0 {
		m.labels = make(Labels, len(labels))
		for k, v := range labels {
			m.labels[k] = v
		}
	}
	r.metrics[key] = m
	r.order = append(r.order, m)
	return m
}

// Counter returns the counter for (name, labels), creating it on first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	m := r.lookup(name, help, TypeCounter, labels, func() *metric { return &metric{counter: &Counter{}} })
	if m.counter == nil {
		panic(fmt.Sprintf("obs: metric %q is not a settable counter", name))
	}
	return m.counter
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	m := r.lookup(name, help, TypeGauge, labels, func() *metric { return &metric{gauge: &Gauge{}} })
	if m.gauge == nil {
		panic(fmt.Sprintf("obs: metric %q is not a settable gauge", name))
	}
	return m.gauge
}

// Histogram returns the histogram for (name, labels), creating it with the
// given bucket upper bounds (nil: DefBuckets) on first use. The +Inf
// bucket is implicit. Buckets are fixed at creation; a later call with
// different buckets returns the existing instance unchanged.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	m := r.lookup(name, help, TypeHistogram, labels, func() *metric { return &metric{hist: newHistogram(buckets)} })
	return m.hist
}

// CounterFunc registers (or replaces) a counter whose value is read from
// fn at snapshot time — for mirroring counters owned elsewhere, like the
// result cache's hit/miss totals. fn must be safe for concurrent use.
// Replacement semantics mirror cmd/lbserver's expvar indirection: the most
// recently registered fn wins, so tests that build several schedulers over
// one registry read the live one.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	m := r.lookup(name, help, TypeCounter, labels, func() *metric { return &metric{} })
	r.mu.Lock()
	m.fn = fn
	r.mu.Unlock()
}

// GaugeFunc is CounterFunc for gauge-typed readings (queue depth, jobs
// running) owned by the instrumented component.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	m := r.lookup(name, help, TypeGauge, labels, func() *metric { return &metric{} })
	r.mu.Lock()
	m.fn = fn
	r.mu.Unlock()
}

// snapshotLocked copies the metric list so sampling can run unlocked.
func (r *Registry) metricList() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*metric(nil), r.order...)
}

func (r *Registry) familyOf(name string) family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		return *f
	}
	return family{}
}

// value is a counter's, gauge's or function metric's current reading.
func (m *metric) value() float64 {
	switch {
	case m.fn != nil:
		return m.fn()
	case m.counter != nil:
		return float64(m.counter.Value())
	case m.gauge != nil:
		return float64(m.gauge.Value())
	}
	return 0
}

// sortMetrics orders by name first (keeping each family contiguous — a
// name can be a prefix of another, so the raw key is not enough), then by
// the rendered label string.
func sortMetrics(ms []*metric) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].key < ms[j].key
	})
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, one # HELP and # TYPE
// line each, histograms expanded into cumulative _bucket/_sum/_count
// series. The output is deterministic for a fixed set of readings, which
// the exposition golden test relies on.
func (r *Registry) WritePrometheus(w io.Writer) error {
	ms := r.metricList()
	sortMetrics(ms)
	var lastName string
	for _, m := range ms {
		f := r.familyOf(m.name)
		if m.name != lastName {
			if f.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, f.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, f.typ); err != nil {
				return err
			}
			lastName = m.name
		}
		if err := writeSample(w, m); err != nil {
			return err
		}
	}
	return nil
}

func writeSample(w io.Writer, m *metric) error {
	labelStr := renderLabels(m.labels)
	if m.hist != nil {
		for _, b := range m.hist.cumulative() {
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				m.name, renderLabels(withLE(m.labels, b.Upper)), b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", m.name, labelStr, formatFloat(m.hist.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", m.name, labelStr, m.hist.Count())
		return err
	}
	_, err := fmt.Fprintf(w, "%s%s %s\n", m.name, labelStr, formatFloat(m.value()))
	return err
}

// withLE extends labels with the histogram bucket bound.
func withLE(labels Labels, upper float64) Labels {
	out := make(Labels, len(labels)+1)
	for k, v := range labels {
		out[k] = v
	}
	out["le"] = formatFloat(upper)
	return out
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
