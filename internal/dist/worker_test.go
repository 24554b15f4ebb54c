package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jayanti98/internal/jobs"
	"jayanti98/internal/obs"
)

func newProtocolServer(t *testing.T, c *Coordinator) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	c.RegisterRoutes(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func startWorker(t *testing.T, ctx context.Context, opts WorkerOptions) *sync.WaitGroup {
	t.Helper()
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}
	if opts.BackoffBase == 0 {
		opts.BackoffBase = 2 * time.Millisecond
	}
	if opts.BackoffMax == 0 {
		opts.BackoffMax = 20 * time.Millisecond
	}
	w, err := NewWorker(opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := w.Run(ctx); err != nil {
			t.Errorf("worker %s: %v", w.ID(), err)
		}
	}()
	return &wg
}

// TestWorkerEndToEnd is the in-process version of the dist smoke test:
// a coordinator behind a real HTTP server, two polling workers, one
// distributed job — the merged result must equal the serial run.
func TestWorkerEndToEnd(t *testing.T) {
	c := newTestCoordinator(Options{LeaseTTL: 200 * time.Millisecond, MaxShards: 4})
	srv := newProtocolServer(t, c)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, id := range []string{"wA", "wB"} {
		wg := startWorker(t, ctx, WorkerOptions{Server: srv.URL, ID: id, Parallel: 1})
		defer wg.Wait()
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.ActiveWorkers() < 2 {
		if !time.Now().Before(deadline) {
			t.Fatal("workers never polled")
		}
		time.Sleep(time.Millisecond)
	}

	spec := testSpec(t)
	serial := serialResult(t, spec)
	runCtx, runCancel := context.WithTimeout(ctx, 30*time.Second)
	defer runCancel()
	payload, handled, err := c.Run(runCtx, "job1", spec, jobs.NewProgress())
	if !handled || err != nil {
		t.Fatalf("Run = (handled=%v, err=%v)", handled, err)
	}
	if !bytes.Equal(payload, serial) {
		t.Fatalf("distributed result differs from serial\nserial: %s\ndist:   %s", serial, payload)
	}
	cancel()
}

// TestWorkerRetryBudget: a worker pointed at a dead coordinator gives up
// after MaxRetries consecutive poll failures instead of spinning forever.
func TestWorkerRetryBudget(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close() // now every poll fails at the transport

	w, err := NewWorker(WorkerOptions{
		Server: url, ID: "w1", MaxRetries: 2,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
		Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("worker returned nil against a dead coordinator")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker never exhausted its retry budget")
	}
}

func TestWorkerCleanShutdown(t *testing.T) {
	c := newTestCoordinator(Options{LeaseTTL: time.Second})
	srv := newProtocolServer(t, c)
	ctx, cancel := context.WithCancel(context.Background())
	wg := startWorker(t, ctx, WorkerOptions{Server: srv.URL, ID: "w1"})
	deadline := time.Now().Add(10 * time.Second)
	for c.ActiveWorkers() < 1 {
		if !time.Now().Before(deadline) {
			t.Fatal("worker never polled")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait() // startWorker's goroutine t.Errorf's on a non-nil Run error
}

func TestWorkerValidation(t *testing.T) {
	if _, err := NewWorker(WorkerOptions{}); err == nil {
		t.Fatal("NewWorker accepted an empty server URL")
	}
	w, err := NewWorker(WorkerOptions{Server: "http://x", Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if w.ID() == "" {
		t.Fatal("default worker ID empty")
	}
	if w.opts.MaxRetries != 8 || w.opts.BackoffBase != 100*time.Millisecond || w.opts.BackoffMax != 5*time.Second {
		t.Fatalf("defaults = %+v", w.opts)
	}
}

// TestProtocolHTTPStatusCodes exercises the wire layer directly: the
// verdict-to-status mapping workers key their retry/abandon decisions on.
func TestProtocolHTTPStatusCodes(t *testing.T) {
	c := newTestCoordinator(Options{LeaseTTL: time.Minute, MaxShards: 1})
	srv := newProtocolServer(t, c)
	client := srv.Client()

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := client.Post(srv.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// No work: 204. Malformed body / missing worker: 400.
	if resp := post("/v1/shards/lease", `{"worker":"w1"}`); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("idle lease: %d, want 204", resp.StatusCode)
	}
	if resp := post("/v1/shards/lease", `{"worker":`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json: %d, want 400", resp.StatusCode)
	}
	if resp := post("/v1/shards/lease", `{}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("nameless lease: %d, want 400", resp.StatusCode)
	}
	// Traffic for shards nobody tracks: 404 (result) and 404 (heartbeat).
	if resp := post("/v1/shards/nope.0/result", `{"worker":"w1","lease":1,"hash":"x","payload":{}}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown shard result: %d, want 404", resp.StatusCode)
	}
	if resp := post("/v1/shards/nope.0/heartbeat", `{"worker":"w1","lease":1}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown shard heartbeat: %d, want 404", resp.StatusCode)
	}

	// Register a job so a real lease flows, then drive the verdicts.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := runJob(c, ctx, "job1", testSpec(t))
	var grant LeaseResponse
	deadline := time.Now().Add(10 * time.Second)
	for grant.ShardID == "" {
		if !time.Now().Before(deadline) {
			t.Fatal("no grant over HTTP")
		}
		resp := post("/v1/shards/lease", `{"worker":"w1"}`)
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&grant); err != nil {
				t.Fatal(err)
			}
			break
		}
		time.Sleep(time.Millisecond)
	}

	payload, err := jobs.RunPart(ctx, grant.Spec, grant.Range.Lo, grant.Range.Hi, 1)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(ResultRequest{Worker: "w1", Lease: grant.Lease, Hash: "bogus", Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if resp := post("/v1/shards/"+grant.ShardID+"/result", string(raw)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("hash mismatch: %d, want 400", resp.StatusCode)
	}
	raw, err = json.Marshal(ResultRequest{Worker: "w1", Lease: grant.Lease + 99, Hash: HashPayload(payload), Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if resp := post("/v1/shards/"+grant.ShardID+"/result", string(raw)); resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale lease: %d, want 409", resp.StatusCode)
	}

	// An oversize heartbeat: 413, and the lease survives it.
	if resp := post("/v1/shards/"+grant.ShardID+"/heartbeat", `{"worker":"w1","lease":1,"pad":"`+strings.Repeat("x", maxControlBytes)+`"}`); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize heartbeat: %d, want 413", resp.StatusCode)
	}
	if resp := post("/v1/shards/"+grant.ShardID+"/heartbeat", fmt.Sprintf(`{"worker":"w1","lease":%d}`, grant.Lease)); resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat after the oversize one: %d, want 200", resp.StatusCode)
	}

	// The ledger snapshot shows the in-flight job.
	resp, err := client.Get(srv.URL + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Jobs) != 1 || st.Jobs[0].ID != "job1" || st.Jobs[0].Leased != 1 {
		t.Fatalf("snapshot = %+v", st)
	}

	// An upload past the result limit: 413, nothing accepted, and the job
	// leaves the fleet — Run declines so the scheduler runs it locally,
	// and the shard is not re-queued for another worker to recompute.
	huge := json.RawMessage(`"` + strings.Repeat("x", maxResultBytes) + `"`)
	raw, err = json.Marshal(ResultRequest{Worker: "w1", Lease: grant.Lease, Hash: HashPayload(huge), Payload: huge})
	if err != nil {
		t.Fatal(err)
	}
	if resp := post("/v1/shards/"+grant.ShardID+"/result", string(raw)); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize upload: %d, want 413", resp.StatusCode)
	}
	select {
	case out := <-done:
		if out.handled || out.err != nil || out.payload != nil {
			t.Fatalf("Run = (%s, handled=%v, err=%v), want declined", out.payload, out.handled, out.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run kept the job after an oversize result")
	}
	if st := c.Snapshot(); len(st.Jobs) != 0 || st.PendingShards != 0 {
		t.Fatalf("declined job left ledger state: %+v", st)
	}
	raw, err = json.Marshal(ResultRequest{Worker: "w1", Lease: grant.Lease, Hash: HashPayload(payload), Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if resp := post("/v1/shards/"+grant.ShardID+"/result", string(raw)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("upload after the job was declined: %d, want 404", resp.StatusCode)
	}
}

// TestWorkerDoesNotRetry413: a result the server refuses as too large is
// abandoned after one attempt; resending the same bytes cannot succeed.
func TestWorkerDoesNotRetry413(t *testing.T) {
	var uploads atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shards/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		obs.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /v1/shards/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		uploads.Add(1)
		obs.WriteJSON(w, http.StatusRequestEntityTooLarge, map[string]string{"error": "too large"})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	w, err := NewWorker(WorkerOptions{
		Server: srv.URL, ID: "w1", MaxRetries: 3,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
		Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	grant := &LeaseResponse{ShardID: "job1.0", Lease: 1, TTLMillis: 60_000, Spec: testSpec(t), Range: Range{Lo: 0, Hi: 1}}
	if err := w.execute(context.Background(), grant); err == nil || !strings.Contains(err.Error(), "413") {
		t.Fatalf("execute = %v, want a 413 error", err)
	}
	if got := uploads.Load(); got != 1 {
		t.Fatalf("%d upload attempts, want 1", got)
	}
}

// TestOversizeResultRunsJobLocally drives the whole path with a real
// worker and scheduler: every shard result is over the coordinator's
// limit, so the first refused upload ends the distribution — no lease
// expires and no shard is re-leased — and the scheduler completes the job
// locally with the serial bytes.
func TestOversizeResultRunsJobLocally(t *testing.T) {
	c := newTestCoordinator(Options{LeaseTTL: time.Minute, MaxShards: 2})
	c.maxResult = 64 // below every shard payload
	srv := newProtocolServer(t, c)

	ctx, cancel := context.WithCancel(context.Background())
	wg := startWorker(t, ctx, WorkerOptions{Server: srv.URL, ID: "w1", Parallel: 1})
	defer func() {
		cancel()
		wg.Wait()
	}()
	deadline := time.Now().Add(10 * time.Second)
	for c.ActiveWorkers() < 1 {
		if !time.Now().Before(deadline) {
			t.Fatal("worker never polled")
		}
		time.Sleep(time.Millisecond)
	}

	s, err := jobs.NewScheduler(jobs.Options{Workers: 1, Dist: c, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		if err := s.Shutdown(sctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	spec := testSpec(t)
	view, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Well under the one-minute lease: the job must not wait for it.
	wctx, wcancel := context.WithTimeout(ctx, 20*time.Second)
	defer wcancel()
	final, err := s.Wait(wctx, view.ID)
	if err != nil {
		t.Fatalf("job never finished: %v", err)
	}
	if final.Status != jobs.StatusDone {
		t.Fatalf("job status %s (%s), want done", final.Status, final.Error)
	}
	if serial := serialResult(t, spec); !bytes.Equal(final.Result, serial) {
		t.Fatalf("local result differs from serial\nserial: %s\ngot:    %s", serial, final.Result)
	}
	if got := c.met.distributed.Value(); got != 1 {
		t.Fatalf("dist_jobs_distributed_total = %d, want 1 (the fleet must have been offered the job)", got)
	}
	if got := c.met.leased.Value(); got != 1 {
		t.Fatalf("dist_shards_leased_total = %d, want 1", got)
	}
	if got := c.met.released.Value(); got != 0 {
		t.Fatalf("dist_shards_released_total = %d, want 0", got)
	}
	if got := c.met.fallback.Value(); got != 1 {
		t.Fatalf("dist_jobs_fallback_total = %d, want 1", got)
	}
}

// TestPoisonShardRunsJobLocally: a worker that leases the only shard and
// never uploads or heartbeats (one that dies on it every time) gets the
// shard back maxShardReleases times; the expiry after that drops the
// job, and the scheduler completes it locally with the serial bytes.
func TestPoisonShardRunsJobLocally(t *testing.T) {
	c := newTestCoordinator(Options{LeaseTTL: 10 * time.Millisecond, MaxShards: 1, ActiveWindow: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the poisoned worker: leases whatever is pending, forever
		defer wg.Done()
		for ctx.Err() == nil {
			c.Lease("w1")
			time.Sleep(time.Millisecond)
		}
	}()
	defer func() {
		cancel()
		wg.Wait()
	}()
	deadline := time.Now().Add(10 * time.Second)
	for c.ActiveWorkers() < 1 {
		if !time.Now().Before(deadline) {
			t.Fatal("worker never polled")
		}
		time.Sleep(time.Millisecond)
	}

	s, err := jobs.NewScheduler(jobs.Options{Workers: 1, Dist: c, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		if err := s.Shutdown(sctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	spec := testSpec(t)
	view, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithTimeout(ctx, 20*time.Second)
	defer wcancel()
	final, err := s.Wait(wctx, view.ID)
	if err != nil {
		t.Fatalf("job never finished: %v", err)
	}
	if final.Status != jobs.StatusDone {
		t.Fatalf("job status %s (%s), want done", final.Status, final.Error)
	}
	if serial := serialResult(t, spec); !bytes.Equal(final.Result, serial) {
		t.Fatalf("local result differs from serial\nserial: %s\ngot:    %s", serial, final.Result)
	}
	if got := c.met.leased.Value(); got != maxShardReleases+1 {
		t.Fatalf("dist_shards_leased_total = %d, want %d", got, maxShardReleases+1)
	}
	if got := c.met.released.Value(); got != maxShardReleases {
		t.Fatalf("dist_shards_released_total = %d, want %d", got, maxShardReleases)
	}
	if got := c.met.fallback.Value(); got != 1 {
		t.Fatalf("dist_jobs_fallback_total = %d, want 1", got)
	}
	if st := c.Snapshot(); len(st.Jobs) != 0 || st.PendingShards != 0 {
		t.Fatalf("dropped job left ledger state: %+v", st)
	}
}

// TestUnmergeablePartsRunJobLocally: a part that passes its hash check
// but does not merge (here a sweep part with no results for its six
// coordinates) is never salvaged into a failed job. The coordinator
// declines, and the scheduler recomputes the job locally to the serial
// bytes.
func TestUnmergeablePartsRunJobLocally(t *testing.T) {
	c := newTestCoordinator(Options{LeaseTTL: time.Minute, MaxShards: 1})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // a worker that uploads an empty part for whatever it leases
		defer wg.Done()
		empty := []byte(`{"results":[]}`)
		for ctx.Err() == nil {
			if g := c.Lease("w1"); g != nil {
				if err := c.Result(g.ShardID, g.Lease, HashPayload(empty), empty); err != nil {
					t.Errorf("upload: %v", err)
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	defer func() {
		cancel()
		wg.Wait()
	}()
	deadline := time.Now().Add(10 * time.Second)
	for c.ActiveWorkers() < 1 {
		if !time.Now().Before(deadline) {
			t.Fatal("worker never polled")
		}
		time.Sleep(time.Millisecond)
	}

	tracer := obs.NewTracer(0)
	s, err := jobs.NewScheduler(jobs.Options{Workers: 1, Dist: c, Obs: obs.NewRegistry(), Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		if err := s.Shutdown(sctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	spec := testSpec(t)
	view, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithTimeout(ctx, 20*time.Second)
	defer wcancel()
	final, err := s.Wait(wctx, view.ID)
	if err != nil {
		t.Fatalf("job never finished: %v", err)
	}
	if final.Status != jobs.StatusDone {
		t.Fatalf("job status %s (%s), want done", final.Status, final.Error)
	}
	if serial := serialResult(t, spec); !bytes.Equal(final.Result, serial) {
		t.Fatalf("local result differs from serial\nserial: %s\ngot:    %s", serial, final.Result)
	}
	if got := c.met.completed.Value(); got != 1 {
		t.Fatalf("dist_shards_completed_total = %d, want 1", got)
	}
	if got := c.met.fallback.Value(); got != 1 {
		t.Fatalf("dist_jobs_fallback_total = %d, want 1", got)
	}
	if st := c.Snapshot(); len(st.Jobs) != 0 || st.PendingShards != 0 {
		t.Fatalf("declined job left ledger state: %+v", st)
	}
	var abandoned string
	for _, sd := range tracer.Spans() {
		if sd.Name == "dist "+spec.Kind {
			abandoned = sd.Attrs["abandoned"]
		}
	}
	if abandoned != "parts do not merge" {
		t.Fatalf("dist span abandoned = %q, want %q", abandoned, "parts do not merge")
	}
}
