package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"jayanti98/internal/campaign"
)

func campaignRoundSpec() *Spec {
	return &Spec{Kind: KindCampaignRound, CampaignRound: &campaign.RoundSpec{
		Campaign: campaign.Spec{
			Alg: "group-update", Object: "fetch-increment", N: 2, BatchSize: 8, MaxCorpus: 8,
		},
	}}
}

func TestCampaignRoundSpecIDAndValidate(t *testing.T) {
	a := campaignRoundSpec()
	idA, err := a.ID()
	if err != nil {
		t.Fatal(err)
	}
	b := campaignRoundSpec()
	idB, err := b.ID()
	if err != nil {
		t.Fatal(err)
	}
	if idA != idB {
		t.Fatal("identical round specs hash differently")
	}
	c := campaignRoundSpec()
	c.CampaignRound.Round = 1
	idC, err := c.ID()
	if err != nil {
		t.Fatal(err)
	}
	if idC == idA {
		t.Fatal("different rounds share a job ID — round caching would alias")
	}
	d := campaignRoundSpec()
	d.CampaignRound.Corpus = [][]int{{0, 1}}
	idD, err := d.ID()
	if err != nil {
		t.Fatal(err)
	}
	if idD == idA {
		t.Fatal("different corpora share a job ID")
	}

	bad := campaignRoundSpec()
	bad.CampaignRound.Corpus = [][]int{{0, 7}} // pid 7 outside [0, 2)
	if _, err := bad.ID(); err == nil {
		t.Fatal("corpus with out-of-range pid validated")
	}
	neg := campaignRoundSpec()
	neg.CampaignRound.Round = -1
	if _, err := neg.ID(); err == nil {
		t.Fatal("negative round validated")
	}
	empty := &Spec{Kind: KindCampaignRound}
	empty.Normalize()
	if empty.CampaignRound == nil {
		t.Fatal("Normalize did not default the round spec")
	}
}

// TestCampaignRoundJobMatchesDirectExecution: running a round as a job
// yields the same result bytes as campaign.ExecuteRound — which is what
// makes round jobs cacheable and distributable.
func TestCampaignRoundJobMatchesDirectExecution(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 1})
	spec := campaignRoundSpec()
	view, created, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("fresh round spec deduped")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := s.Wait(ctx, view.ID)
	if err != nil || final.Status != StatusDone {
		t.Fatalf("job: %v %+v", err, final)
	}
	var viaJob campaign.RoundResult
	if err := json.Unmarshal(final.Result, &viaJob); err != nil {
		t.Fatal(err)
	}
	directSpec := campaignRoundSpec()
	directSpec.Normalize()
	direct, err := campaign.ExecuteRound(context.Background(), directSpec.CampaignRound, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&viaJob, direct) {
		t.Fatal("job-run round differs from direct execution")
	}
}

func TestRoundExecutorRunsAndDecodes(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 1})
	ex := NewRoundExecutor(s)
	rs := campaignRoundSpec().CampaignRound
	rs.Campaign.Normalize()
	rr, err := ex.ExecuteRound(context.Background(), rs)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Round != 0 || len(rr.Results) != rs.Campaign.BatchSize {
		t.Fatalf("round result: round=%d results=%d", rr.Round, len(rr.Results))
	}
	// A second execution is served from the result cache, byte-identically.
	rr2, err := ex.ExecuteRound(context.Background(), rs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rr, rr2) {
		t.Fatal("cached round differs from first execution")
	}
}

func TestRoundExecutorCancellation(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 1})
	ex := NewRoundExecutor(s)
	rs := campaignRoundSpec().CampaignRound
	rs.Campaign.Normalize()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ex.ExecuteRound(ctx, rs); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled round: %v, want context.Canceled", err)
	}
}

func checkpointID(seed byte) string {
	sum := sha256.Sum256([]byte{seed})
	return hex.EncodeToString(sum[:])
}

func TestCacheCheckpoints(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	id := checkpointID(1)
	if _, ok := c.Checkpoints.Get(id); ok {
		t.Fatal("phantom checkpoint")
	}
	if err := c.Checkpoints.Put(id, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Overwrite in place — the deliberate departure from write-once results.
	if err := c.Checkpoints.Put(id, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Checkpoints.Get(id); !ok || string(got) != "v2" {
		t.Fatalf("checkpoint = %q, %v", got, ok)
	}
	if err := c.Checkpoints.Put("not-a-hash", []byte("x")); err == nil {
		t.Fatal("bad checkpoint id accepted")
	}

	// Checkpoints survive a "restart": a fresh cache over the same dir.
	id2 := checkpointID(2)
	if err := c.Checkpoints.Put(id2, []byte("other")); err != nil {
		t.Fatal(err)
	}
	reborn, err := NewCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := reborn.Checkpoints.Get(id); !ok || string(got) != "v2" {
		t.Fatalf("restarted checkpoint = %q, %v", got, ok)
	}
	want := []string{id, id2}
	if id2 < id {
		want = []string{id2, id}
	}
	if got := reborn.Checkpoints.List(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Checkpoints() = %v, want %v", got, want)
	}

	// Checkpoints are exempt from the LRU: filling the result cache far
	// beyond capacity must not evict them from a memory-only cache.
	mem, err := NewCache(2, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Checkpoints.Put(id, []byte("mem")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := mem.Results.Put(checkpointID(byte(100+i)), []byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := mem.Checkpoints.Get(id); !ok || string(got) != "mem" {
		t.Fatal("LRU pressure evicted a checkpoint")
	}
	if got := mem.Checkpoints.List(); !reflect.DeepEqual(got, []string{id}) {
		t.Fatalf("memory-only Checkpoints() = %v", got)
	}
}

// TestSchedulerPrunesTerminalJobs: the job map stays bounded under a
// long-lived campaign's endless stream of round jobs; results stay served
// from the cache after the tracking entry is pruned.
func TestSchedulerPrunesTerminalJobs(t *testing.T) {
	// The cache must outlive the job map here: the point is that pruning a
	// tracked job loses nothing because the result survives in the cache.
	bigCache, err := NewCache(maxTrackedJobs+128, "")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestScheduler(t, Options{Workers: 1, Cache: bigCache})
	swapRunSpec(t, func(ctx context.Context, spec *Spec, p *Progress, parallel int) ([]byte, error) {
		return []byte(`{"ok":true}`), nil
	})
	var firstID string
	for i := 0; i < maxTrackedJobs+50; i++ {
		spec := quickExploreSpec()
		spec.Explore.Budget = 100 + i // distinct content hash per job
		view, _, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstID = view.ID
		}
		if _, err := s.Wait(context.Background(), view.ID); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.List()); n > maxTrackedJobs {
		t.Fatalf("job map grew to %d, bound is %d", n, maxTrackedJobs)
	}
	if _, ok := s.Get(firstID); ok {
		t.Fatal("oldest terminal job still tracked after overflow")
	}
	// The pruned job's result still serves from the cache: resubmitting the
	// same spec answers done immediately with the cached bytes.
	spec := quickExploreSpec()
	spec.Explore.Budget = 100
	view, created, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Fatal("resubmission of a cached spec created a fresh run")
	}
	if view.Status != StatusDone || !strings.Contains(string(view.Result), `"ok":true`) {
		t.Fatalf("cached view = %+v", view)
	}
}
