package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// quickExploreSpec is a real workload small enough for unit tests: the
// exhaustive schedule search over two processes, one op each.
func quickExploreSpec() *Spec {
	return &Spec{Kind: KindExplore, Explore: &ExploreSpec{
		Alg: "central", Object: "fetch-increment", N: 2, OpsPerProc: 1, Mode: "exhaustive",
	}}
}

func newTestScheduler(t *testing.T, opts Options) *Scheduler {
	t.Helper()
	s, err := NewScheduler(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

// swapRunSpec installs a fake spec executor for the duration of the test.
func swapRunSpec(t *testing.T, fn func(ctx context.Context, spec *Spec, p *Progress, parallel int) ([]byte, error)) {
	t.Helper()
	orig := runSpecFn
	runSpecFn = fn
	t.Cleanup(func() { runSpecFn = orig })
}

func waitStatus(t *testing.T, s *Scheduler, id string, want Status) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		view, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if view.Status == want {
			return view
		}
		if view.Status.Terminal() {
			t.Fatalf("job %s ended %s (err %q), want %s", id, view.Status, view.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobView{}
}

func TestSchedulerRunsJobAndDedupes(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 2})

	view, created, err := s.Submit(quickExploreSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first submission should create a job")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := s.Wait(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone {
		t.Fatalf("status = %s (err %q), want done", final.Status, final.Error)
	}
	if len(final.Result) == 0 {
		t.Fatal("done job has no result")
	}
	var res ExploreResult
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatalf("result is not an ExploreResult: %v", err)
	}
	if res.Mode != "exhaustive" || res.Runs == 0 {
		t.Fatalf("unexpected result %+v", res)
	}

	// Second submission of the same spec: same ID, served as cached,
	// byte-identical result, no new work.
	again, created, err := s.Submit(quickExploreSpec())
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Fatal("resubmission enqueued new work")
	}
	if again.ID != view.ID {
		t.Fatalf("resubmission got ID %s, want %s", again.ID, view.ID)
	}
	if !again.Cached {
		t.Fatal("resubmission of a done job should report cached")
	}
	if !bytes.Equal(again.Result, final.Result) {
		t.Fatal("cached result is not byte-identical")
	}

	c := s.Counters()
	if c.Submitted != 1 || c.Completed != 1 || c.CacheServed != 1 {
		t.Fatalf("counters = %+v", c)
	}
	// The completed explore job recorded a phase latency sample.
	lats := s.PhaseLatencies()
	if sum, ok := lats["explore/exhaustive"]; !ok || sum.N != 1 {
		t.Fatalf("explore/exhaustive latency = %+v, want one sample", lats)
	}
}

func TestSchedulerServesFromDiskCacheAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	spec := quickExploreSpec()

	cache1, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewScheduler(Options{Workers: 1, Cache: cache1})
	if err != nil {
		t.Fatal(err)
	}
	view, _, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := s1.Wait(ctx, view.ID)
	if err != nil || final.Status != StatusDone {
		t.Fatalf("first run: %v, %+v", err, final)
	}
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// A brand-new scheduler over the same cache dir — the restart — serves
	// the spec without running anything.
	cache2, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newTestScheduler(t, Options{Workers: 1, Cache: cache2})
	revived, created, err := s2.Submit(quickExploreSpec())
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Fatal("restart resubmission enqueued work despite the disk cache")
	}
	if revived.Status != StatusDone || !revived.Cached {
		t.Fatalf("revived job = status %s cached %v, want done/cached", revived.Status, revived.Cached)
	}
	if revived.ID != view.ID {
		t.Fatalf("restart changed the job ID: %s vs %s", revived.ID, view.ID)
	}
	if !bytes.Equal(revived.Result, final.Result) {
		t.Fatal("disk-cached result is not byte-identical")
	}
	if st := cache2.Stats(); st.DiskHits != 1 {
		t.Fatalf("diskHits = %d, want 1", st.DiskHits)
	}
}

func TestSchedulerCancelRunningJob(t *testing.T) {
	running := make(chan struct{})
	var resumed bool
	swapRunSpec(t, func(ctx context.Context, spec *Spec, p *Progress, parallel int) ([]byte, error) {
		if resumed {
			return []byte(`{"ok":true}`), nil
		}
		close(running)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	s := newTestScheduler(t, Options{Workers: 1})

	view, _, err := s.Submit(quickExploreSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-running
	waitStatus(t, s, view.ID, StatusRunning)
	if !s.Cancel(view.ID) {
		t.Fatal("Cancel returned false for a running job")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := s.Wait(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusCanceled {
		t.Fatalf("status = %s, want canceled", final.Status)
	}
	if len(final.Result) != 0 {
		t.Fatal("canceled job carries a result")
	}
	// The cancellation must not poison the cache.
	if _, ok := s.Cache().Results.Get(view.ID); ok {
		t.Fatal("canceled job left an entry in the result cache")
	}
	if c := s.Counters(); c.Canceled != 1 || c.Completed != 0 {
		t.Fatalf("counters = %+v", c)
	}

	// Resubmitting the same spec after cancellation runs fresh.
	resumed = true
	re, created, err := s.Submit(quickExploreSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("resubmission after cancel did not enqueue fresh work")
	}
	if re.ID != view.ID {
		t.Fatalf("resubmission changed the ID: %s vs %s", re.ID, view.ID)
	}
	final, err = s.Wait(ctx, re.ID)
	if err != nil || final.Status != StatusDone {
		t.Fatalf("fresh run after cancel: %v, status %s (err %q)", err, final.Status, final.Error)
	}
}

func TestSchedulerCancelQueuedJob(t *testing.T) {
	running := make(chan struct{})
	release := make(chan struct{})
	swapRunSpec(t, func(ctx context.Context, spec *Spec, p *Progress, parallel int) ([]byte, error) {
		select {
		case <-running:
		default:
			close(running)
		}
		select {
		case <-release:
			return []byte(`{"ok":true}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	s := newTestScheduler(t, Options{Workers: 1})

	first, _, err := s.Submit(quickExploreSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-running

	// The single worker is busy, so this one stays queued.
	queuedSpec := &Spec{Kind: KindExplore, Explore: &ExploreSpec{N: 3, Mode: "exhaustive"}}
	queued, _, err := s.Submit(queuedSpec)
	if err != nil {
		t.Fatal(err)
	}
	if queued.Status != StatusQueued {
		t.Fatalf("second job status = %s, want queued", queued.Status)
	}
	if !s.Cancel(queued.ID) {
		t.Fatal("Cancel returned false for a queued job")
	}
	view, _ := s.Get(queued.ID)
	if view.Status != StatusCanceled {
		t.Fatalf("queued job after cancel = %s, want canceled", view.Status)
	}

	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if final, err := s.Wait(ctx, first.ID); err != nil || final.Status != StatusDone {
		t.Fatalf("first job: %v, %s", err, final.Status)
	}
	// The worker skipped the cancelled record without running it.
	if c := s.Counters(); c.Canceled != 1 || c.Completed != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestSchedulerCancelUnknownAndTerminal(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 1})
	if s.Cancel("nope") {
		t.Fatal("Cancel of an unknown ID returned true")
	}
	view, _, err := s.Submit(quickExploreSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.Wait(ctx, view.ID); err != nil {
		t.Fatal(err)
	}
	// Cancelling a done job is a harmless no-op that still returns true.
	if !s.Cancel(view.ID) {
		t.Fatal("Cancel of a known terminal job returned false")
	}
	if got, _ := s.Get(view.ID); got.Status != StatusDone {
		t.Fatalf("terminal job mutated by Cancel: %s", got.Status)
	}
}

func TestSchedulerPanicIsolation(t *testing.T) {
	calls := 0
	swapRunSpec(t, func(ctx context.Context, spec *Spec, p *Progress, parallel int) ([]byte, error) {
		calls++
		if calls == 1 {
			panic("kaboom")
		}
		return []byte(`{"ok":true}`), nil
	})
	s := newTestScheduler(t, Options{Workers: 1})

	view, _, err := s.Submit(quickExploreSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := s.Wait(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusFailed || !strings.Contains(final.Error, "panicked") {
		t.Fatalf("panicking job = %s (%q), want failed/panicked", final.Status, final.Error)
	}
	if _, ok := s.Cache().Results.Get(view.ID); ok {
		t.Fatal("failed job left a cache entry")
	}

	// The worker survived; the same spec resubmits fresh and succeeds.
	re, created, err := s.Submit(quickExploreSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("resubmission after failure did not enqueue fresh work")
	}
	if final, err = s.Wait(ctx, re.ID); err != nil || final.Status != StatusDone {
		t.Fatalf("after panic: %v, %s", err, final.Status)
	}
	if c := s.Counters(); c.Failed != 1 || c.Completed != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestSchedulerJobTimeout(t *testing.T) {
	swapRunSpec(t, func(ctx context.Context, spec *Spec, p *Progress, parallel int) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	s := newTestScheduler(t, Options{Workers: 1, JobTimeout: 20 * time.Millisecond})

	view, _, err := s.Submit(quickExploreSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := s.Wait(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusCanceled {
		t.Fatalf("timed-out job = %s, want canceled", final.Status)
	}
	if _, ok := s.Cache().Results.Get(view.ID); ok {
		t.Fatal("timed-out job left a cache entry")
	}
}

func TestSchedulerQueueFull(t *testing.T) {
	release := make(chan struct{})
	running := make(chan struct{})
	var once bool
	swapRunSpec(t, func(ctx context.Context, spec *Spec, p *Progress, parallel int) ([]byte, error) {
		if !once {
			once = true
			close(running)
		}
		select {
		case <-release:
			return []byte(`{"ok":true}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	s := newTestScheduler(t, Options{Workers: 1, QueueDepth: 1})

	if _, _, err := s.Submit(&Spec{Kind: KindExplore, Explore: &ExploreSpec{N: 2, Mode: "exhaustive"}}); err != nil {
		t.Fatal(err)
	}
	<-running // worker busy
	if _, _, err := s.Submit(&Spec{Kind: KindExplore, Explore: &ExploreSpec{N: 3, Mode: "exhaustive"}}); err != nil {
		t.Fatal(err) // fills the one queue slot
	}
	_, _, err := s.Submit(&Spec{Kind: KindExplore, Explore: &ExploreSpec{N: 4, Mode: "exhaustive"}})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}
	close(release)
}

func TestSchedulerShutdownRejectsAndCancels(t *testing.T) {
	started := make(chan struct{})
	swapRunSpec(t, func(ctx context.Context, spec *Spec, p *Progress, parallel int) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	s, err := NewScheduler(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	view, _, err := s.Submit(quickExploreSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	if final, _ := s.Get(view.ID); final.Status != StatusCanceled {
		t.Fatalf("job after shutdown = %s, want canceled", final.Status)
	}
	if _, _, err := s.Submit(quickExploreSpec()); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit after shutdown: %v, want ErrShuttingDown", err)
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerRejectsInvalidSpec(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 1})
	if _, _, err := s.Submit(&Spec{Kind: "bogus"}); err == nil {
		t.Fatal("Submit accepted an invalid spec")
	}
	if c := s.Counters(); c.Submitted != 0 {
		t.Fatalf("invalid spec counted as submitted: %+v", c)
	}
}
