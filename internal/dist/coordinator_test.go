package dist

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"jayanti98/internal/jobs"
	"jayanti98/internal/obs"
)

// testSpec is a small normalized sweep spec (3 constructions × ns {2,4}
// = 6 coordinates).
func testSpec(t *testing.T) *jobs.Spec {
	t.Helper()
	spec := &jobs.Spec{Kind: jobs.KindSweep, Sweep: &jobs.SweepSpec{Type: "queue", MaxN: 4}}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return spec
}

func newTestCoordinator(opts Options) *Coordinator {
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}
	return NewCoordinator(opts)
}

// runJob calls c.Run on a goroutine and returns a channel with its
// outcome.
type runOutcome struct {
	payload []byte
	handled bool
	err     error
}

func runJob(c *Coordinator, ctx context.Context, id string, spec *jobs.Spec) <-chan runOutcome {
	out := make(chan runOutcome, 1)
	go func() {
		payload, handled, err := c.Run(ctx, id, spec, jobs.NewProgress())
		out <- runOutcome{payload, handled, err}
	}()
	return out
}

func TestCoordinatorDeclinesWithoutWorkers(t *testing.T) {
	c := newTestCoordinator(Options{LeaseTTL: time.Second})
	payload, handled, err := c.Run(context.Background(), "job1", testSpec(t), jobs.NewProgress())
	if handled || err != nil || payload != nil {
		t.Fatalf("Run with no workers = (%v, %v, %v), want declined", payload, handled, err)
	}
}

func TestCoordinatorDeclinesUnshardable(t *testing.T) {
	c := newTestCoordinator(Options{LeaseTTL: time.Second})
	c.Lease("w1") // register a worker so the decline is about the spec
	spec := &jobs.Spec{Kind: jobs.KindReport}
	spec.Normalize()
	if _, handled, err := c.Run(context.Background(), "job1", spec, jobs.NewProgress()); handled || err != nil {
		t.Fatalf("report job handled=%v err=%v, want declined", handled, err)
	}
}

// TestCoordinatorLeaseResultMerge drives the full protocol by hand: a
// "worker" leases every shard, executes it in-process, and uploads the
// hashed payload; Run's merged result must equal the serial run.
func TestCoordinatorLeaseResultMerge(t *testing.T) {
	c := newTestCoordinator(Options{LeaseTTL: time.Minute, MaxShards: 3})
	spec := testSpec(t)
	serial := serialResult(t, spec)

	if g := c.Lease("w1"); g != nil {
		t.Fatalf("empty coordinator granted %+v", g)
	}
	done := runJob(c, context.Background(), "job1", spec)

	seen := 0
	var last *Grant
	var lastPayload []byte
	deadline := time.Now().Add(10 * time.Second)
	for seen < 3 && time.Now().Before(deadline) {
		g := c.Lease("w1")
		if g == nil {
			time.Sleep(time.Millisecond)
			continue
		}
		seen++
		payload, err := ExecuteShard(context.Background(), g.Spec, g.Range, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Heartbeat(g.ShardID, g.Lease); err != nil {
			t.Fatalf("heartbeat on live lease: %v", err)
		}
		if err := c.Result(g.ShardID, g.Lease, HashPayload(payload), payload); err != nil {
			t.Fatalf("upload shard %s: %v", g.ShardID, err)
		}
		if seen == 3 {
			// The final upload finishes the job, which Run then removes:
			// its duplicate is checked after Run returns.
			last, lastPayload = g, payload
			continue
		}
		// Duplicate upload of a done shard, while its job still has work
		// left, is acknowledged idempotently.
		if err := c.Result(g.ShardID, g.Lease, HashPayload(payload), payload); err != nil {
			t.Fatalf("duplicate upload: %v", err)
		}
	}
	if seen != 3 {
		t.Fatalf("leased %d shards, want 3", seen)
	}

	out := <-done
	if !out.handled || out.err != nil {
		t.Fatalf("Run = (handled=%v, err=%v), want handled", out.handled, out.err)
	}
	if !bytes.Equal(out.payload, serial) {
		t.Fatalf("distributed result differs from serial\nserial: %s\ndist:   %s", serial, out.payload)
	}
	// The ledger is clean afterwards: late traffic, the final shard's
	// duplicate upload included, gets ErrUnknownShard.
	if err := c.Heartbeat("job1.0", 1); !errors.Is(err, ErrUnknownShard) {
		t.Fatalf("heartbeat after completion = %v, want ErrUnknownShard", err)
	}
	if err := c.Result(last.ShardID, last.Lease, HashPayload(lastPayload), lastPayload); !errors.Is(err, ErrUnknownShard) {
		t.Fatalf("duplicate upload after completion = %v, want ErrUnknownShard", err)
	}
	if st := c.Snapshot(); len(st.Jobs) != 0 || st.PendingShards != 0 {
		t.Fatalf("ledger not empty after completion: %+v", st)
	}
}

// TestCoordinatorReleasesExpiredLease: a crashed worker's shard goes back
// in the queue once its TTL passes, the new lease supersedes the old one,
// and the dead worker's late upload is rejected.
func TestCoordinatorReleasesExpiredLease(t *testing.T) {
	c := newTestCoordinator(Options{LeaseTTL: 20 * time.Millisecond, MaxShards: 1, ActiveWindow: time.Minute})
	spec := testSpec(t)
	c.Lease("w1")
	done := runJob(c, context.Background(), "job1", spec)

	var old *Grant
	deadline := time.Now().Add(10 * time.Second)
	for old == nil && time.Now().Before(deadline) {
		old = c.Lease("w1")
		time.Sleep(time.Millisecond)
	}
	if old == nil {
		t.Fatal("never got a lease")
	}
	// w1 "crashes": no heartbeat. After the TTL the shard is re-leasable.
	time.Sleep(3 * c.opts.LeaseTTL)
	var fresh *Grant
	for fresh == nil && time.Now().Before(deadline) {
		fresh = c.Lease("w2")
		time.Sleep(time.Millisecond)
	}
	if fresh == nil {
		t.Fatal("expired shard never re-leased")
	}
	if fresh.ShardID != old.ShardID || fresh.Lease == old.Lease {
		t.Fatalf("re-lease = %+v, old = %+v: want same shard, new token", fresh, old)
	}

	payload, err := ExecuteShard(context.Background(), fresh.Spec, fresh.Range, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The zombie's token is dead for heartbeats and uploads alike.
	if err := c.Heartbeat(old.ShardID, old.Lease); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("zombie heartbeat = %v, want ErrLeaseLost", err)
	}
	if err := c.Result(old.ShardID, old.Lease, HashPayload(payload), payload); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("zombie upload = %v, want ErrLeaseLost", err)
	}
	if err := c.Result(fresh.ShardID, fresh.Lease, HashPayload(payload), payload); err != nil {
		t.Fatalf("fresh upload: %v", err)
	}
	out := <-done
	if !out.handled || out.err != nil {
		t.Fatalf("Run = (handled=%v, err=%v)", out.handled, out.err)
	}
	if got := c.met.released.Value(); got < 1 {
		t.Fatalf("dist_shards_released_total = %d, want ≥ 1", got)
	}
}

func TestCoordinatorRejectsHashMismatch(t *testing.T) {
	c := newTestCoordinator(Options{LeaseTTL: time.Minute, MaxShards: 1})
	spec := testSpec(t)
	c.Lease("w1")
	done := runJob(c, context.Background(), "job1", spec)

	var g *Grant
	deadline := time.Now().Add(10 * time.Second)
	for g == nil && time.Now().Before(deadline) {
		g = c.Lease("w1")
		time.Sleep(time.Millisecond)
	}
	if g == nil {
		t.Fatal("never got a lease")
	}
	payload, err := ExecuteShard(context.Background(), g.Spec, g.Range, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Result(g.ShardID, g.Lease, "deadbeef", payload); !errors.Is(err, ErrHashMismatch) {
		t.Fatalf("corrupt upload = %v, want ErrHashMismatch", err)
	}
	// The lease survives a rejected upload: the retry with the right hash
	// needs no re-lease.
	if err := c.Result(g.ShardID, g.Lease, HashPayload(payload), payload); err != nil {
		t.Fatalf("retry upload: %v", err)
	}
	out := <-done
	if !out.handled || out.err != nil {
		t.Fatalf("Run = (handled=%v, err=%v)", out.handled, out.err)
	}
	if got := c.met.rejected.Value(); got != 1 {
		t.Fatalf("dist_results_rejected_total = %d, want 1", got)
	}
}

// TestCoordinatorAbandonsWhenFleetVanishes: the only worker stops
// polling; once it ages out of the active window Run declines so the
// scheduler recomputes locally.
func TestCoordinatorAbandonsWhenFleetVanishes(t *testing.T) {
	c := newTestCoordinator(Options{LeaseTTL: 20 * time.Millisecond, ActiveWindow: 60 * time.Millisecond})
	spec := testSpec(t)
	c.Lease("w1") // registers, then never polls again
	done := runJob(c, context.Background(), "job1", spec)

	select {
	case out := <-done:
		if out.handled || out.err != nil {
			t.Fatalf("Run = (handled=%v, err=%v), want abandoned decline", out.handled, out.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run never abandoned the job")
	}
	if st := c.Snapshot(); len(st.Jobs) != 0 || st.PendingShards != 0 {
		t.Fatalf("abandoned job left ledger state: %+v", st)
	}
}

func TestCoordinatorRunHonorsContext(t *testing.T) {
	c := newTestCoordinator(Options{LeaseTTL: time.Minute})
	spec := testSpec(t)
	c.Lease("w1")
	ctx, cancel := context.WithCancel(context.Background())
	done := runJob(c, ctx, "job1", spec)
	cancel()
	select {
	case out := <-done:
		if !out.handled || !errors.Is(out.err, context.Canceled) {
			t.Fatalf("Run = (handled=%v, err=%v), want canceled", out.handled, out.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run ignored context cancellation")
	}
}

func TestCoordinatorDuplicateJobDeclined(t *testing.T) {
	c := newTestCoordinator(Options{LeaseTTL: time.Minute})
	spec := testSpec(t)
	c.Lease("w1")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := runJob(c, ctx, "job1", spec)
	// Wait until the first registration is visible.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := c.Snapshot(); len(st.Jobs) == 1 {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatal("first job never registered")
		}
		time.Sleep(time.Millisecond)
	}
	if _, handled, err := c.Run(ctx, "job1", spec, jobs.NewProgress()); handled || err != nil {
		t.Fatalf("duplicate Run = (handled=%v, err=%v), want declined", handled, err)
	}
	cancel()
	<-first
}
