package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"jayanti98/internal/campaign"
	"jayanti98/internal/jobs"
	"jayanti98/internal/obs"
	"jayanti98/internal/tenant"
)

func TestParseFlags(t *testing.T) {
	opts, err := parseFlags([]string{
		"-addr", ":9999", "-workers", "4", "-queue", "8",
		"-job-timeout", "5s", "-cache-dir", "/tmp/x", "-cache-entries", "7",
		"-drain-timeout", "2s", "-log-level", "debug", "-trace-spans", "32",
		"-dist=false", "-lease-ttl", "3s", "-dist-shards", "5",
	})
	if err != nil {
		t.Fatal(err)
	}
	if opts.addr != ":9999" || opts.workers != 4 || opts.queueDepth != 8 ||
		opts.jobTimeout != 5*time.Second || opts.cacheDir != "/tmp/x" ||
		opts.cacheEntries != 7 || opts.drainTimeout != 2*time.Second ||
		opts.logLevel != slog.LevelDebug || opts.traceSpans != 32 ||
		opts.dist || opts.leaseTTL != 3*time.Second || opts.distShards != 5 {
		t.Fatalf("opts = %+v", opts)
	}
	defaults, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !defaults.dist || defaults.leaseTTL != 15*time.Second || defaults.distShards != 8 {
		t.Fatalf("dist defaults = %+v", defaults)
	}
	if _, err := parseFlags([]string{"stray"}); err == nil {
		t.Fatal("positional arguments accepted")
	}
	if _, err := parseFlags([]string{"-log-level", "shouty"}); err == nil {
		t.Fatal("bad log level accepted")
	}
	if _, err := parseFlags([]string{"-lease-ttl", "-1s"}); err == nil {
		t.Fatal("negative lease TTL accepted")
	}
	if _, err := parseFlags([]string{"-dist-shards", "0"}); err == nil {
		t.Fatal("zero shard bound accepted")
	}
}

// newTestServer builds a scheduler and mux over fresh observability sinks
// so assertions see only this test's activity.
func newTestServer(t *testing.T, opts options) (*jobs.Scheduler, *httptest.Server, *obs.Registry, *obs.Tracer, *bytes.Buffer) {
	t.Helper()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(64)
	var logBuf bytes.Buffer
	logger := obs.NewLogger(&logBuf, slog.LevelDebug)
	coord := newCoordinator(opts, reg, logger)
	sched, err := newScheduler(opts, coord, tenant.Open(), reg, tracer, logger)
	if err != nil {
		t.Fatal(err)
	}
	mgr := campaign.NewManager(campaign.ManagerOptions{
		Executor:     jobs.NewRoundExecutor(sched),
		Checkpointer: sched.Cache().Checkpoints,
		Obs:          reg,
		Tracer:       tracer,
		Logger:       logger,
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := mgr.Shutdown(ctx); err != nil {
			t.Errorf("campaign shutdown: %v", err)
		}
		if err := sched.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	srv := httptest.NewServer(newMux(sched, coord, mgr, tenant.Open(), reg, tracer, logger))
	t.Cleanup(srv.Close)
	return sched, srv, reg, tracer, &logBuf
}

func TestServerEndToEnd(t *testing.T) {
	opts, err := parseFlags([]string{"-workers", "2", "-cache-dir", t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	sched, srv, reg, tracer, logBuf := newTestServer(t, opts)

	// Liveness and every metrics surface come up before any job runs.
	for _, path := range []string{"/healthz", "/debug/vars", "/v1/cache/stats", "/metrics", "/debug/traces", "/debug/pprof/"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
	}

	spec := `{"kind":"explore","explore":{"alg":"central","mode":"exhaustive"}}`
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(spec)))
	if err != nil {
		t.Fatal(err)
	}
	var view jobs.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := sched.Wait(ctx, view.ID)
	if err != nil || final.Status != jobs.StatusDone {
		t.Fatalf("job: %v, %+v", err, final)
	}
	// Resubmit: a cache/dedup hit for the hit-counter assertions below.
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(spec)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmission: %d, want 200", resp.StatusCode)
	}

	// The expvar endpoint reflects the completed job.
	resp, err = http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars struct {
		Jobs  jobs.Counters   `json:"jobs"`
		Cache jobs.CacheStats `json:"jobs.cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if vars.Jobs.Submitted != 1 || vars.Jobs.Completed != 1 {
		t.Fatalf("expvar jobs = %+v", vars.Jobs)
	}
	if vars.Cache.Entries != 1 {
		t.Fatalf("expvar cache = %+v", vars.Cache)
	}

	// /metrics: completed-job counter, populated HTTP latency histogram,
	// cache and dedup counters — the acceptance surface.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(body)
	for _, want := range []string{
		"jobs_completed_total 1",
		"jobs_submitted_total 1",
		"jobs_dedup_inflight_total 1",
		"jobs_cache_served_total 1",
		`http_requests_total{code="201",route="POST /v1/jobs"} 1`,
		"jobs_cache_misses_total",
		"jobs_cache_hits_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if m := regexp.MustCompile(`http_request_duration_seconds_count\{route="POST /v1/jobs"\} (\d+)`).FindStringSubmatch(metrics); m == nil || m[1] == "0" {
		t.Errorf("HTTP latency histogram not populated:\n%s", metrics)
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", metrics)
	}

	// /debug/traces: a span tree rooted at the job covering the
	// scheduler → explore phase, plus per-request spans.
	trees := tracer.Trees()
	var jobTree *obs.SpanTree
	for _, tr := range trees {
		if tr.Name == "job explore" {
			jobTree = tr
		}
	}
	if jobTree == nil {
		t.Fatalf("no job span among %d trees", len(trees))
	}
	if jobTree.Attrs["status"] != "done" || len(jobTree.Children) == 0 || jobTree.Children[0].Name != "explore exhaustive" {
		t.Fatalf("job tree = %+v (children %+v)", jobTree.SpanData, jobTree.Children)
	}
	resp, err = http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var gotTrees []obs.SpanTree
	if err := json.NewDecoder(resp.Body).Decode(&gotTrees); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(gotTrees) == 0 {
		t.Fatal("/debug/traces returned no trees")
	}

	// Structured logs: request lines with request_id, job lines with job_id.
	logs := logBuf.String()
	if !strings.Contains(logs, `"request_id"`) || !strings.Contains(logs, `"job_id"`) {
		t.Fatalf("log stream missing correlation ids:\n%s", logs)
	}
	if !strings.Contains(logs, `"msg":"job finished"`) || !strings.Contains(logs, `"status":"done"`) {
		t.Fatalf("job lifecycle lines missing:\n%s", logs)
	}

	// Registry snapshot counts the job exactly once despite two submissions.
	if got := reg.Counter("jobs_submitted_total", "", nil).Value(); got != 1 {
		t.Fatalf("jobs_submitted_total = %d", got)
	}

	// The sweep engine and adversary-loop counters live on the process
	// Default registry (the one the real server exposes); the explore job
	// ran work through the pool, so they must be nonzero by now.
	for _, name := range []string{"sweep_tasks_total"} {
		if got := obs.Default().Counter(name, "", nil).Value(); got == 0 {
			t.Errorf("%s = 0 on the default registry", name)
		}
	}
}

func TestNewMuxIdempotentExpvars(t *testing.T) {
	// Two servers in one process must not collide on expvar names; the
	// metrics follow the most recent scheduler.
	for i := 0; i < 2; i++ {
		reg := obs.NewRegistry()
		tracer := obs.NewTracer(8)
		logger := obs.NopLogger()
		sched, err := newScheduler(options{workers: 1, queueDepth: 4, cacheEntries: 4}, nil, tenant.Open(), reg, tracer, logger)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(newMux(sched, nil, nil, tenant.Open(), reg, tracer, logger))
		for _, path := range []string{"/debug/vars", "/metrics"} {
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("round %d: %s %d", i, path, resp.StatusCode)
			}
		}
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := sched.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
	}
}

// TestBodiesRejectTrailingData: a body holding a valid request followed
// by more bytes is refused with a 400 {"error": ...} on the job, campaign
// and shard routes, and nothing is created or leased.
func TestBodiesRejectTrailingData(t *testing.T) {
	opts, err := parseFlags([]string{"-workers", "1"})
	if err != nil {
		t.Fatal(err)
	}
	sched, srv, _, _, _ := newTestServer(t, opts)
	for _, c := range []struct{ path, body string }{
		{"/v1/jobs", `{"kind":"explore","explore":{"alg":"central","mode":"exhaustive"}}{"garbage":`},
		{"/v1/campaigns", `{"alg":"group-update","n":2,"batchSize":8,"maxRounds":2}{"garbage":`},
		{"/v1/shards/lease", `{"worker":"w1"}{"garbage":`},
		{"/v1/jobs", `{"kind":"explore","explore":{"alg":"central","mode":"exhaustive"}} x`},
	} {
		resp, err := http.Post(srv.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		decErr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || decErr != nil || e.Error == "" {
			t.Errorf("POST %s %q: %d, error %q (%v), want 400 with an error", c.path, c.body, resp.StatusCode, e.Error, decErr)
		}
	}
	if n := len(sched.List()); n != 0 {
		t.Errorf("%d jobs created, want 0", n)
	}
	resp, err := http.Get(srv.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Campaigns []json.RawMessage `json:"campaigns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Campaigns) != 0 {
		t.Errorf("%d campaigns started, want 0", len(list.Campaigns))
	}

	// Trailing whitespace is not data: the same job spec with it is taken.
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"kind":"explore","explore":{"alg":"central","mode":"exhaustive"}}`+" \n\t\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("spec with trailing whitespace: %d, want 201", resp.StatusCode)
	}
}
