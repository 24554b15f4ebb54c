package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jayanti98/internal/obs"
	"jayanti98/internal/tenant"
)

// echoRunSpec is a deterministic fake executor: the result is a pure
// function of the spec, mirroring the real determinism contract the
// journal's replay-and-recompute path relies on.
func echoRunSpec(ctx context.Context, spec *Spec, p *Progress, parallel int) ([]byte, error) {
	seed := int64(0)
	if spec.Explore != nil {
		seed = spec.Explore.Seed
	}
	return []byte(fmt.Sprintf(`{"kind":%q,"seed":%d}`, spec.Kind, seed)), nil
}

func newDirScheduler(t *testing.T, dir string, opts Options) *Scheduler {
	t.Helper()
	cache, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = cache
	return newTestScheduler(t, opts)
}

// TestJournalTerminalJobSurvivesRestart: a finished job is tracked by a
// restarted scheduler without resubmission, served byte-identically from
// the result cache.
func TestJournalTerminalJobSurvivesRestart(t *testing.T) {
	swapRunSpec(t, echoRunSpec)
	dir := t.TempDir()
	spec := fuzzSpec(7)

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
		t.Fatalf("first life: %+v, %v", final, err)
	}
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The journal record is on disk alongside the result.
	if _, err := os.Stat(filepath.Join(dir, view.ID+".job.json")); err != nil {
		t.Fatalf("journal record missing: %v", err)
	}

	s2 := newDirScheduler(t, dir, Options{Workers: 1})
	// No resubmission: GET alone finds the job.
	revived, ok := s2.Get(view.ID)
	if !ok {
		t.Fatal("restarted scheduler does not track the journaled job")
	}
	if revived.Status != StatusDone || !revived.Cached {
		t.Fatalf("revived = status %s cached %v, want done/cached", revived.Status, revived.Cached)
	}
	if !bytes.Equal(revived.Result, final.Result) {
		t.Fatalf("replayed result differs:\n  was %s\n  now %s", final.Result, revived.Result)
	}
}

// TestJournalStaleSnapshotNeverLandsLast pins the lost-update fix: Submit
// journals its "queued" snapshot after unlocking the scheduler, so a
// worker can run the job and journal "done" between that snapshot and its
// write. The test keeps the one worker busy with a blocker job until
// Submit has taken its snapshot, then the seam releases the blocker and
// holds the queued record until the job finishes. Without a per-job
// journal lock the worker gets through, and the stale queued record lands
// last: a restart would re-run a finished job. With the lock the worker
// waits for the queued write, the seam gives up after a while, and the
// done record lands last.
func TestJournalStaleSnapshotNeverLandsLast(t *testing.T) {
	release := make(chan struct{})
	swapRunSpec(t, func(ctx context.Context, spec *Spec, p *Progress, parallel int) ([]byte, error) {
		if spec.Explore.Seed == 8 {
			<-release
		}
		return echoRunSpec(ctx, spec, p, parallel)
	})
	dir := t.TempDir()
	blocker, spec := fuzzSpec(8), fuzzSpec(9)
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	var s *Scheduler
	held := false
	orig := journalSeam
	journalSeam = func(rec JobRecord) {
		if rec.ID != id || held {
			return
		}
		held = true
		if rec.Status != StatusQueued {
			t.Errorf("first journal record of the job has status %s, want queued", rec.Status)
		}
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		close(release)
		select {
		case <-j.done:
		case <-time.After(250 * time.Millisecond):
		}
	}
	t.Cleanup(func() { journalSeam = orig })

	s = newDirScheduler(t, dir, Options{Workers: 1})
	bv, _, err := s.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, bv.ID, StatusRunning)
	if _, _, err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	// Wait, not waitStatus: the job's done channel closes only after its
	// last journal write.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if final, err := s.Wait(ctx, id); err != nil || final.Status != StatusDone {
		t.Fatalf("job ended %+v, %v", final, err)
	}
	if !held {
		t.Fatal("the seam never saw the job's journal record")
	}
	data, ok := s.cache.JobRecords.Get(id)
	if !ok {
		t.Fatal("journal record missing")
	}
	var rec JobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Status != StatusDone {
		t.Fatalf("last journal record has status %s, want done: a stale snapshot landed after the job finished", rec.Status)
	}
}

// TestJournalReplayReenqueuesEveryKind: queued and running records of
// every job kind — report, sweep, explore, and an in-flight campaign
// round — are re-enqueued at boot and run to completion.
func TestJournalReplayReenqueuesEveryKind(t *testing.T) {
	swapRunSpec(t, echoRunSpec)
	dir := t.TempDir()
	cache, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}

	specs := []*Spec{
		{Kind: KindReport, Report: &ReportSpec{Quick: true, Experiments: []string{"E1"}}},
		{Kind: KindSweep, Sweep: &SweepSpec{Type: "queue", MaxN: 4}},
		fuzzSpec(11),
		campaignRoundSpec(), // the in-flight campaign round
	}
	statuses := []Status{StatusQueued, StatusRunning, StatusQueued, StatusRunning}
	created := time.Now().Add(-time.Minute)
	var ids []string
	for i, spec := range specs {
		id, err := spec.ID()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		ids = append(ids, id)
		rec := JobRecord{
			ID:      id,
			Spec:    spec,
			Status:  statuses[i],
			Created: created.Add(time.Duration(i) * time.Second),
		}
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := cache.JobRecords.Put(id, data); err != nil {
			t.Fatal(err)
		}
	}

	// Replay must bypass tenant caps: work the previous life accepted is
	// never rejected, even by a registry that would cap new submissions
	// below the replayed backlog.
	reg, err := tenant.New(tenant.Config{
		Tenants:        []tenant.Tenant{{Name: tenant.DefaultName, Key: "kd", Limits: tenant.Limits{MaxQueued: 1}}},
		AllowAnonymous: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestScheduler(t, Options{Workers: 2, Cache: cache, Tenants: reg})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, id := range ids {
		final, err := s.Wait(ctx, id)
		if err != nil || final.Status != StatusDone {
			t.Fatalf("replayed %s job %d ended %+v, %v", specs[i].Kind, i, final, err)
		}
		want, _ := echoRunSpec(ctx, specs[i], nil, 0)
		if !bytes.Equal(final.Result, want) {
			t.Fatalf("replayed %s result = %s, want %s", specs[i].Kind, final.Result, want)
		}
	}
}

// TestJournalTombstoneSurvivesRestart: DELETE /v1/jobs is durable — an
// explicitly canceled job stays canceled after a restart instead of being
// re-enqueued, whether it was queued or running when canceled.
func TestJournalTombstoneSurvivesRestart(t *testing.T) {
	runningStarted := make(chan struct{})
	release := make(chan struct{})
	swapRunSpec(t, func(ctx context.Context, spec *Spec, p *Progress, parallel int) ([]byte, error) {
		close(runningStarted)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	})
	dir := t.TempDir()
	cache1, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewScheduler(Options{Workers: 1, Cache: cache1})
	if err != nil {
		t.Fatal(err)
	}
	runningView, _, err := s1.Submit(fuzzSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-runningStarted
	queuedView, _, err := s1.Submit(fuzzSpec(2))
	if err != nil {
		t.Fatal(err)
	}

	// Cancel both: one mid-run, one while queued.
	if !s1.Cancel(runningView.ID) || !s1.Cancel(queuedView.ID) {
		t.Fatal("cancel failed")
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if final, err := s1.Wait(ctx, runningView.ID); err != nil || final.Status != StatusCanceled {
		t.Fatalf("running job after cancel: %+v, %v", final, err)
	}
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The restarted scheduler would happily run these specs (the executor
	// below completes instantly) — but the tombstones must keep them
	// canceled.
	swapRunSpec(t, echoRunSpec)
	s2 := newDirScheduler(t, dir, Options{Workers: 1})
	for _, id := range []string{runningView.ID, queuedView.ID} {
		view, ok := s2.Get(id)
		if !ok {
			t.Fatalf("job %s not tracked after restart", id)
		}
		if view.Status != StatusCanceled {
			t.Fatalf("tombstoned job %s replayed as %s, want canceled", id, view.Status)
		}
	}
	// And they stay canceled: nothing runs them later.
	time.Sleep(20 * time.Millisecond)
	if view, _ := s2.Get(runningView.ID); view.Status != StatusCanceled {
		t.Fatalf("tombstoned job was resurrected as %s", view.Status)
	}
}

// TestJournalDrainCancelResumesAfterRestart: a job canceled only by
// graceful shutdown (not by the user) is journaled back as queued and
// completes in the next life.
func TestJournalDrainCancelResumesAfterRestart(t *testing.T) {
	started := make(chan struct{})
	swapRunSpec(t, func(ctx context.Context, spec *Spec, p *Progress, parallel int) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	dir := t.TempDir()
	cache1, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewScheduler(Options{Workers: 1, Cache: cache1})
	if err != nil {
		t.Fatal(err)
	}
	view, _, err := s1.Submit(fuzzSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	swapRunSpec(t, echoRunSpec)
	s2 := newDirScheduler(t, dir, Options{Workers: 1})
	final, err := s2.Wait(ctx, view.ID)
	if err != nil || final.Status != StatusDone {
		t.Fatalf("drained job did not resume: %+v, %v", final, err)
	}
	want, _ := echoRunSpec(ctx, fuzzSpec(42), nil, 0)
	if !bytes.Equal(final.Result, want) {
		t.Fatalf("resumed result = %s, want %s", final.Result, want)
	}
}

// TestJournalDoneRecordWithMissingResultRecomputes: a "done" record whose
// result bytes were wiped by hand is re-enqueued, and determinism yields
// the identical bytes again.
func TestJournalDoneRecordWithMissingResultRecomputes(t *testing.T) {
	swapRunSpec(t, echoRunSpec)
	dir := t.TempDir()
	cache, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := fuzzSpec(5)
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	rec := JobRecord{ID: id, Spec: spec, Status: StatusDone, Created: now, Started: &now, Finished: &now}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.JobRecords.Put(id, data); err != nil {
		t.Fatal(err)
	}
	// No cache.Results.Put(id, ...): the result bytes are "gone".

	s := newTestScheduler(t, Options{Workers: 1, Cache: cache})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := s.Wait(ctx, id)
	if err != nil || final.Status != StatusDone {
		t.Fatalf("recompute: %+v, %v", final, err)
	}
	want, _ := echoRunSpec(ctx, spec, nil, 0)
	if !bytes.Equal(final.Result, want) {
		t.Fatalf("recomputed result = %s, want %s", final.Result, want)
	}
}

// TestJournalCorruptRecordSkipped: one undecodable journal file must not
// keep the scheduler from booting or from replaying its valid neighbors,
// and a record whose spec does not hash to its ID is never replayed —
// replaying job A's ID with job B's spec would run B and cache B's bytes
// under A's ID, to be served for every later submission of A.
func TestJournalCorruptRecordSkipped(t *testing.T) {
	swapRunSpec(t, echoRunSpec)
	dir := t.TempDir()
	cache, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	// A valid queued record...
	spec := fuzzSpec(9)
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	rec := JobRecord{ID: id, Spec: spec, Status: StatusQueued, Created: time.Now()}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.JobRecords.Put(id, data); err != nil {
		t.Fatal(err)
	}
	// ...next to garbage under a plausible ID, and a record whose ID field
	// disagrees with its filename.
	garbageID := strings.Repeat("ab", 32)
	if err := os.WriteFile(filepath.Join(dir, garbageID+".job.json"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	mismatchID := strings.Repeat("cd", 32)
	if err := os.WriteFile(filepath.Join(dir, mismatchID+".job.json"),
		[]byte(`{"id":"other","spec":{"kind":"explore","explore":{"mode":"fuzz"}},"status":"queued","created":"2026-01-01T00:00:00Z"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Two records whose specs do not hash to their IDs: job A's ID with
	// job B's spec, and a spec that no longer validates.
	a := fuzzSpec(5)
	idA, err := a.ID()
	if err != nil {
		t.Fatal(err)
	}
	invalidID := strings.Repeat("ef", 32)
	for id, spec := range map[string]*Spec{
		idA:       fuzzSpec(6),
		invalidID: {Kind: KindExplore, Explore: &ExploreSpec{N: 99}},
	} {
		data, err := json.Marshal(JobRecord{ID: id, Spec: spec, Status: StatusQueued, Created: time.Now()})
		if err != nil {
			t.Fatal(err)
		}
		if err := cache.JobRecords.Put(id, data); err != nil {
			t.Fatal(err)
		}
	}

	s := newDirScheduler(t, dir, Options{Workers: 1, Obs: obs.NewRegistry()})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := s.Wait(ctx, id)
	if err != nil || final.Status != StatusDone {
		t.Fatalf("valid record did not replay: %+v, %v", final, err)
	}
	for _, bad := range []string{garbageID, mismatchID, idA, invalidID} {
		if _, ok := s.Get(bad); ok {
			t.Fatalf("rejected record %s produced a job", bad[:8])
		}
	}
	if got := s.met.journalSkipped.Value(); got != 4 {
		t.Fatalf("journalSkipped = %d, want 4", got)
	}
	view, _, err := s.Submit(fuzzSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	final, err = s.Wait(ctx, view.ID)
	want, _ := echoRunSpec(ctx, a, nil, 0)
	if err != nil || !bytes.Equal(final.Result, want) || final.Cached {
		t.Fatalf("submission of A = %s (cached %v, %v), want %s computed fresh", final.Result, final.Cached, err, want)
	}
}

// TestJournalRecordPrunedWithJob: pruning an old terminal job also
// deletes its journal record, so the journal does not grow forever under
// campaign churn.
func TestJournalRecordPrunedWithJob(t *testing.T) {
	swapRunSpec(t, echoRunSpec)
	dir := t.TempDir()
	s := newDirScheduler(t, dir, Options{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Overflow maxTrackedJobs so the oldest terminal jobs get pruned.
	var firstID string
	for seed := int64(0); seed < maxTrackedJobs+8; seed++ {
		view, _, err := s.Submit(fuzzSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		if seed == 0 {
			firstID = view.ID
		}
		if _, err := s.Wait(ctx, view.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get(firstID); ok {
		t.Fatal("oldest job was not pruned")
	}
	if _, ok := s.Cache().JobRecords.Get(firstID); ok {
		t.Fatal("pruned job's journal record survived")
	}
	// Its result is still content-addressed-cached, though.
	if _, ok := s.Cache().Results.Get(firstID); !ok {
		t.Fatal("pruning removed the cached result, not just the record")
	}
}

// FuzzJournalRecord feeds arbitrary bytes, under an arbitrary file ID, to
// the decoder boot replay trusts: it must never panic, and every record it
// accepts must name its file's job and carry a spec that hashes to that
// ID — corrupt bytes are rejected, never mis-replayed. The committed
// corpus holds a valid record, garbage, an id/file mismatch, a spec-hash
// mismatch, an out-of-range spec and a null spec.
func FuzzJournalRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, fileID string, data []byte) {
		rec, err := decodeJobRecord(fileID, data)
		if err != nil {
			return
		}
		if rec.ID != fileID {
			t.Fatalf("accepted record id %q under file %q", rec.ID, fileID)
		}
		if specID, err := rec.Spec.ID(); err != nil || specID != fileID {
			t.Fatalf("accepted record's spec hashes to %q (%v) under file %q", specID, err, fileID)
		}
	})
}
