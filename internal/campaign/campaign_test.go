package campaign

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func testSpec() *Spec {
	return &Spec{
		Alg:       "group-update",
		Object:    "fetch-increment",
		N:         2,
		BatchSize: 16,
		MaxCorpus: 8,
	}
}

func TestSpecNormalizeAndID(t *testing.T) {
	sparse := &Spec{}
	id1, err := sparse.ID()
	if err != nil {
		t.Fatal(err)
	}
	// Normalization makes the sparse spec and its explicit-defaults twin the
	// same campaign.
	explicit := &Spec{
		Alg: "group-update", Object: "fetch-increment", N: 2, OpsPerProc: 1,
		Seed: 1, TossRange: 2, BatchSize: 64, MaxCorpus: 32,
	}
	id2, err := explicit.ID()
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("sparse and explicit spec IDs differ: %s vs %s", id1, id2)
	}
	if len(id1) != 64 {
		t.Fatalf("ID is not a sha256 hex digest: %q", id1)
	}
	// Any identity-bearing field changes the ID.
	other := &Spec{Seed: 2}
	id3, err := other.ID()
	if err != nil {
		t.Fatal(err)
	}
	if id3 == id1 {
		t.Fatal("different seeds, same campaign ID")
	}
}

// TestSpecIDDistinguishesLargeSeeds: campaigns whose seeds differ only in
// bits a float64 cannot hold (above 2^53) have different IDs. The ID is
// the checkpoint key, so a collision would resume one campaign from the
// other's state. IDs of specs whose integers fit a float64 exactly are
// the ones the float64 canonical encoding gave them.
func TestSpecIDDistinguishesLargeSeeds(t *testing.T) {
	for _, seed := range []int64{1 << 53, 1 << 60} {
		a, b := &Spec{Seed: seed}, &Spec{Seed: seed + 1}
		ida, err := a.ID()
		if err != nil {
			t.Fatal(err)
		}
		idb, err := b.ID()
		if err != nil {
			t.Fatal(err)
		}
		if ida == idb {
			t.Errorf("seeds %d and %d share campaign ID %s", seed, seed+1, ida)
		}
	}
	pinned := []struct {
		spec Spec
		id   string
	}{
		{Spec{N: 3, Seed: 7}, "6ce3e214a83acbc09790e827fe7fdade9c7bd5448b1a303cd23804ba9ab79fe5"},
		{Spec{Alg: "tas-tournament", N: 3, BatchSize: 16, Seed: 12}, "9e3bb58496b33202de8a4f231f4a6efbb6c97fcc9b0f7c884c702373146761ae"},
	}
	for _, tc := range pinned {
		if got, err := tc.spec.ID(); err != nil || got != tc.id {
			t.Errorf("%+v: ID %s (%v), want %s", tc.spec, got, err, tc.id)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Alg: "no-such-construction"},
		{Object: "no-such-workload"},
		{N: 1},
		{N: 9},
		{OpsPerProc: 99},
		{Budget: -1},
		{TossRange: -3},
		{BatchSize: 5000},
		{MaxCorpus: 2000},
		{MaxRounds: -1},
		{Alg: "tas-tournament", Object: "fetch-increment"}, // zoo alg, wrong workload
		{Alg: "tas-tournament", OpsPerProc: 2},             // zoo algs are one-shot
		{Alg: "tas-tv", N: 3},                              // TV is two-process
	}
	for i, s := range bad {
		s := s
		s.Normalize()
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d validated: %+v", i, s)
		}
	}
	good := testSpec()
	good.Normalize()
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	// A zoo algorithm is campaignable: Object defaults to its workload.
	zoo := Spec{Alg: "tas-tournament", N: 3}
	zoo.Normalize()
	if zoo.Object != "tas" {
		t.Fatalf("zoo Object defaulted to %q, want tas", zoo.Object)
	}
	if err := zoo.Validate(); err != nil {
		t.Fatalf("zoo spec rejected: %v", err)
	}
}

func TestCorpusAddEvictsOldest(t *testing.T) {
	var c Corpus
	for i := 0; i < 5; i++ {
		c.Add(Entry{Schedule: []int{i}, Round: 0, Slot: i}, 3)
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	if got := c.Schedules(); !reflect.DeepEqual(got, [][]int{{2}, {3}, {4}}) {
		t.Fatalf("kept schedules = %v", got)
	}
}

func TestCorpusDigestCanonical(t *testing.T) {
	var a, b Corpus
	for i := 0; i < 3; i++ {
		a.Add(Entry{Schedule: []int{i, i}, Round: 1, Slot: i, NewDigests: 1}, 8)
		b.Add(Entry{Schedule: []int{i, i}, Round: 1, Slot: i, NewDigests: 1}, 8)
	}
	if a.Digest() != b.Digest() {
		t.Fatal("equal corpora, different digests")
	}
	b.Add(Entry{Schedule: []int{9}}, 8)
	if a.Digest() == b.Digest() {
		t.Fatal("different corpora, same digest")
	}
}

// runRounds executes k rounds serially through a fresh state and returns it.
func runRounds(t *testing.T, spec *Spec, k, parallel int) *State {
	t.Helper()
	spec.Normalize()
	st := NewState(*spec)
	for r := 0; r < k; r++ {
		rr, err := ExecuteRound(context.Background(), st.NextRound(), parallel)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.ApplyRound(rr); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestCampaignDeterministic is the headline determinism property: two full
// runs of the same spec — at different parallelism — evolve identical
// corpora and coverage.
func TestCampaignDeterministic(t *testing.T) {
	a := runRounds(t, testSpec(), 3, 1)
	b := runRounds(t, testSpec(), 3, 4)
	if a.Corpus.Digest() != b.Corpus.Digest() {
		t.Fatal("corpus digests diverged across parallelism")
	}
	if a.CoverageDigest() != b.CoverageDigest() {
		t.Fatal("coverage digests diverged across parallelism")
	}
	if a.Execs != b.Execs || a.TotalSteps != b.TotalSteps {
		t.Fatalf("counters diverged: %+v vs %+v", a, b)
	}
	if a.Corpus.Len() == 0 {
		t.Fatal("3 rounds kept nothing — novelty detection is broken")
	}
}

// TestExecuteRoundSliceMerge is the dist merge property at the campaign
// layer: any partition of the round's slots, concatenated in order, equals
// the unsliced round.
func TestExecuteRoundSliceMerge(t *testing.T) {
	spec := testSpec()
	spec.Normalize()
	st := runRounds(t, spec, 1, 2) // one round so the corpus is non-empty
	rs := st.NextRound()
	whole, err := ExecuteRound(context.Background(), rs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, cuts := range [][]int{{8}, {1, 5, 9}, {4, 8, 12}} {
		var merged []InputResult
		lo := 0
		for _, hi := range append(cuts, spec.BatchSize) {
			part, err := ExecuteRoundSlice(context.Background(), rs, lo, hi, 2)
			if err != nil {
				t.Fatal(err)
			}
			merged = append(merged, part...)
			lo = hi
		}
		if !reflect.DeepEqual(merged, whole.Results) {
			t.Fatalf("sliced execution at cuts %v diverged from the whole round", cuts)
		}
	}
}

func TestExecuteRoundSliceRejectsBadRange(t *testing.T) {
	spec := testSpec()
	spec.Normalize()
	rs := &RoundSpec{Campaign: *spec}
	for _, r := range [][2]int{{-1, 4}, {0, spec.BatchSize + 1}, {4, 4}, {5, 2}} {
		if _, err := ExecuteRoundSlice(context.Background(), rs, r[0], r[1], 1); err == nil {
			t.Errorf("range [%d, %d) accepted", r[0], r[1])
		}
	}
}

func TestApplyRoundValidation(t *testing.T) {
	spec := testSpec()
	spec.Normalize()
	st := NewState(*spec)
	if _, err := st.ApplyRound(&RoundResult{Round: 3}); err == nil {
		t.Fatal("wrong round number accepted")
	}
	if _, err := st.ApplyRound(&RoundResult{Round: 0, Results: make([]InputResult, 2)}); err == nil {
		t.Fatal("wrong result count accepted")
	}
}

// TestApplyRoundCoverageIsSortedSet: the coverage ApplyRound merges is the
// ascending set of every digest the rounds reached, for random traces that
// repeat digests within a trace, across slots and across rounds, and it
// stays so through a checkpoint round trip. A checkpoint whose coverage is
// unsorted or repeats a digest decodes to that ascending set.
func TestApplyRoundCoverageIsSortedSet(t *testing.T) {
	spec := Spec{BatchSize: 4}
	spec.Normalize()
	st := NewState(spec)
	rng := rand.New(rand.NewSource(1))
	seen := map[uint64]bool{}
	for round := 0; round < 40; round++ {
		rr := &RoundResult{Round: round, Results: make([]InputResult, spec.BatchSize)}
		for slot := range rr.Results {
			trace := make([]uint64, rng.Intn(24))
			for i := range trace {
				// Few distinct values, spread over the whole range.
				trace[i] = uint64(rng.Intn(300)) * 0x9e3779b97f4a7c15
				seen[trace[i]] = true
			}
			rr.Results[slot].Trace = trace
		}
		if _, err := st.ApplyRound(rr); err != nil {
			t.Fatal(err)
		}
		want := make([]uint64, 0, len(seen))
		for d := range seen {
			want = append(want, d)
		}
		slices.Sort(want)
		if !slices.Equal(st.Coverage, want) {
			t.Fatalf("round %d: coverage %v, want the sorted set %v", round, st.Coverage, want)
		}
		if round == 20 {
			data, err := st.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if st, err = DecodeState(data); err != nil {
				t.Fatal(err)
			}
		}
	}

	st, err := DecodeState([]byte(`{"spec":{"batchSize":1},"coverage":[9,3,9,5]}`))
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{3, 5, 9}; !slices.Equal(st.Coverage, want) {
		t.Fatalf("decoded coverage %v, want %v", st.Coverage, want)
	}
	if _, err := st.ApplyRound(&RoundResult{Results: []InputResult{{Trace: []uint64{4, 9, 1}}}}); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{1, 3, 4, 5, 9}; !slices.Equal(st.Coverage, want) {
		t.Fatalf("coverage after a round %v, want %v", st.Coverage, want)
	}
}

// TestCheckpointRoundTrip: a state resumed from its checkpoint continues
// byte-identically to the uninterrupted run.
func TestCheckpointRoundTrip(t *testing.T) {
	spec := testSpec()
	uninterrupted := runRounds(t, spec, 4, 2)

	resumed := runRounds(t, testSpec(), 2, 2)
	data, err := resumed.Encode()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := DecodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		rr, err := ExecuteRound(context.Background(), restored.NextRound(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := restored.ApplyRound(rr); err != nil {
			t.Fatal(err)
		}
	}
	finalA, err := uninterrupted.Encode()
	if err != nil {
		t.Fatal(err)
	}
	finalB, err := restored.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(finalA) != string(finalB) {
		t.Fatalf("resumed state diverged from uninterrupted run:\n%s\nvs\n%s", finalA, finalB)
	}
}

func TestDecodeStateRejectsGarbage(t *testing.T) {
	if _, err := DecodeState([]byte("{not json")); err == nil {
		t.Fatal("garbage decoded")
	}
	if _, err := DecodeState([]byte(`{"spec":{"alg":"nope"}}`)); err == nil {
		t.Fatal("invalid embedded spec decoded")
	}
}

func TestRecordFindingDedupesAndCaps(t *testing.T) {
	st := NewState(*testSpec())
	f := Finding{Kind: "linearizability", Schedule: []int{0, 1}}
	if !st.RecordFinding(f) {
		t.Fatal("first finding rejected")
	}
	if st.RecordFinding(f) {
		t.Fatal("duplicate finding accepted")
	}
	for i := 0; len(st.Findings) < MaxStoredFindings; i++ {
		st.RecordFinding(Finding{Kind: "linearizability", Schedule: []int{i, i}})
	}
	if st.RecordFinding(Finding{Kind: "other", Schedule: []int{9, 9, 9}}) {
		t.Fatal("finding accepted beyond the cap")
	}
}

// TestZooCampaignRound: a zoo algorithm is a first-class campaign target —
// one round of coverage-guided search over the tournament TAS runs clean,
// with truncated (livelocked) runs reported as incomplete rather than as
// failures.
func TestZooCampaignRound(t *testing.T) {
	spec := Spec{Alg: "tas-tournament", N: 2, BatchSize: 8, Seed: 3}
	spec.Normalize()
	rr, err := ExecuteRound(context.Background(), &RoundSpec{Campaign: spec}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Results) != spec.BatchSize {
		t.Fatalf("round produced %d results, want %d", len(rr.Results), spec.BatchSize)
	}
	completed := 0
	for i, res := range rr.Results {
		if res.FailKind != "" {
			t.Fatalf("slot %d failed: %s: %s", i, res.FailKind, res.FailDetail)
		}
		if len(res.Trace) == 0 {
			t.Fatalf("slot %d has an empty coverage trace", i)
		}
		if res.Completed {
			completed++
		}
	}
	if completed == 0 {
		t.Fatal("no slot completed — random walks should finish the tournament")
	}
}
