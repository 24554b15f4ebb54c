package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter", nil)
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters never go down
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "a gauge", nil)
	g.Set(10)
	g.Dec()
	g.Dec()
	g.Inc()
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge = %d, want 9", got)
	}
}

func TestRegistryIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", Labels{"k": "v", "a": "b"})
	b := r.Counter("x_total", "", Labels{"a": "b", "k": "v"}) // same set, any order
	if a != b {
		t.Fatal("same (name, labels) did not return the same counter")
	}
	other := r.Counter("x_total", "", Labels{"a": "b", "k": "w"})
	if a == other {
		t.Fatal("distinct labels returned the same counter")
	}
	h1 := r.Histogram("h", "", []float64{1, 2}, nil)
	h2 := r.Histogram("h", "", []float64{5}, nil) // buckets fixed at creation
	if h1 != h2 {
		t.Fatal("same histogram name did not return the same instance")
	}
	if len(h1.upper) != 2 {
		t.Fatalf("buckets = %v, want the first registration's", h1.upper)
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("redeclaring a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "", nil)
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{math.Inf(1), 1, 0.1, 1, 0.01}, nil)
	// Duplicates and +Inf are dropped; bounds sorted.
	for _, v := range []float64{0.005, 0.05, 0.5, 5, 0.1} { // 0.1 lands on its bound (inclusive)
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.005+0.05+0.5+5+0.1; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	buckets := h.cumulative()
	wantUpper := []float64{0.01, 0.1, 1, math.Inf(1)}
	wantCount := []uint64{1, 3, 4, 5}
	if len(buckets) != len(wantUpper) {
		t.Fatalf("buckets = %+v", buckets)
	}
	for i, b := range buckets {
		if b.Upper != wantUpper[i] || b.Count != wantCount[i] {
			t.Fatalf("bucket %d = %+v, want upper %v count %d", i, b, wantUpper[i], wantCount[i])
		}
	}
}

func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	v := 3.0
	r.GaugeFunc("depth", "", nil, func() float64 { return v })
	r.CounterFunc("served_total", "", nil, func() float64 { return 7 })
	exposition := func() string {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	want := "# TYPE depth gauge\ndepth 3\n# TYPE served_total counter\nserved_total 7\n"
	if got := exposition(); got != want {
		t.Fatalf("exposition = %q, want %q", got, want)
	}
	// Re-registration replaces the reader (the expvar-style indirection).
	r.GaugeFunc("depth", "", nil, func() float64 { return 42 })
	if got := exposition(); !strings.Contains(got, "\ndepth 42\n") {
		t.Fatalf("replaced func not used: %q", got)
	}
}

// TestConcurrentUpdates hammers one counter, gauge, and histogram from
// many goroutines — the -race suite's coverage of every atomic path,
// including snapshotting concurrent with writes.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_total", "", nil)
	g := r.Gauge("hammer_gauge", "", nil)
	h := r.Histogram("hammer_hist", "", []float64{0.25, 0.5, 0.75}, nil)
	const goroutines, perG = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				g.Inc()
				g.Dec()
				h.Observe(float64(i%4) / 4.0)
				if i%256 == 0 {
					// Concurrent reader: exposition.
					var sb strings.Builder
					_ = r.WritePrometheus(&sb)
				}
				// Concurrent get-or-create of a shared labeled metric.
				r.Counter("hammer_labeled_total", "", Labels{"w": "shared"}).Inc()
			}
		}(w)
	}
	wg.Wait()
	const total = goroutines * perG
	if c.Value() != total {
		t.Fatalf("counter = %d, want %d", c.Value(), total)
	}
	if g.Value() != 0 {
		t.Fatalf("gauge = %d, want 0", g.Value())
	}
	if h.Count() != total {
		t.Fatalf("histogram count = %d, want %d", h.Count(), total)
	}
	if got := r.Counter("hammer_labeled_total", "", Labels{"w": "shared"}).Value(); got != total {
		t.Fatalf("labeled counter = %d, want %d", got, total)
	}
	buckets := h.cumulative()
	if last := buckets[len(buckets)-1].Count; last != total {
		t.Fatalf("+Inf bucket = %d, want %d", last, total)
	}
	wantSum := float64(total) * (0 + 0.25 + 0.5 + 0.75) / 4
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

// TestWritePrometheusGolden pins the exact exposition bytes for a small
// registry: family ordering, HELP/TYPE lines, label rendering and
// escaping, histogram bucket/sum/count expansion, and float formatting.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_completed_total", "Jobs that finished successfully.", nil).Add(3)
	r.Gauge("jobs_queue_depth", "Queued jobs.", nil).Set(2)
	h := r.Histogram("job_duration_seconds", "Job wall-clock.", []float64{0.1, 1}, Labels{"kind": "report"})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2.5)
	r.Counter("http_requests_total", "Requests.", Labels{"route": `GET /v1/jobs/{id}`, "code": "200"}).Inc()
	r.Counter("esc_total", "", Labels{"v": "a\"b\\c\nd"}).Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# TYPE esc_total counter`,
		`esc_total{v="a\"b\\c\nd"} 1`,
		`# HELP http_requests_total Requests.`,
		`# TYPE http_requests_total counter`,
		`http_requests_total{code="200",route="GET /v1/jobs/{id}"} 1`,
		`# HELP job_duration_seconds Job wall-clock.`,
		`# TYPE job_duration_seconds histogram`,
		`job_duration_seconds_bucket{kind="report",le="0.1"} 1`,
		`job_duration_seconds_bucket{kind="report",le="1"} 2`,
		`job_duration_seconds_bucket{kind="report",le="+Inf"} 3`,
		`job_duration_seconds_sum{kind="report"} 3.05`,
		`job_duration_seconds_count{kind="report"} 3`,
		`# HELP jobs_completed_total Jobs that finished successfully.`,
		`# TYPE jobs_completed_total counter`,
		`jobs_completed_total 3`,
		`# HELP jobs_queue_depth Queued jobs.`,
		`# TYPE jobs_queue_depth gauge`,
		`jobs_queue_depth 2`,
	}, "\n") + "\n"
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", sb.String(), want)
	}
}

// TestSnapshotSorted: the exposition lists metrics sorted by name, then
// by label string, whatever their registration order.
func TestSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "", nil)
	r.Counter("a_total", "", Labels{"x": "2"})
	r.Counter("a_total", "", Labels{"x": "1"})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		if !strings.HasPrefix(line, "#") {
			keys = append(keys, strings.Fields(line)[0])
		}
	}
	want := []string{`a_total{x="1"}`, `a_total{x="2"}`, "b_total"}
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Fatalf("exposition order = %v, want %v", keys, want)
	}
}
