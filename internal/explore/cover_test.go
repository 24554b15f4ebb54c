package explore

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
)

func guidedConfig() Config {
	return Config{Alg: "group-update", Object: "fetch-increment", N: 2, OpsPerProc: 1}
}

func TestRunGuidedDeterministic(t *testing.T) {
	cfg := guidedConfig()
	for _, prefix := range [][]int{nil, {0, 0, 1, 1, 0}} {
		a, err := runGuided(cfg, prefix, 42, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runGuided(cfg, prefix, 42, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Schedule, b.Schedule) {
			t.Fatalf("schedules differ: %v vs %v", a.Schedule, b.Schedule)
		}
		if !reflect.DeepEqual(a.Trace, b.Trace) {
			t.Fatalf("traces differ for prefix %v", prefix)
		}
		if len(a.Trace) == 0 {
			t.Fatal("empty trace — the initial state must always be marked")
		}
		if !a.Completed {
			t.Fatalf("run did not complete: %+v", a.RunRecord)
		}
	}
}

func TestRunGuidedSeedsDiverge(t *testing.T) {
	cfg := guidedConfig()
	a, err := runGuided(cfg, nil, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	diverged := false
	for seed := int64(2); seed < 12 && !diverged; seed++ {
		b, err := runGuided(cfg, nil, seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Schedule, b.Schedule) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("10 different seeds all produced the same schedule")
	}
}

// TestRunGuidedReplaysPrefix checks the prefix semantics: replaying a
// completed run's full schedule as the prefix reproduces the run exactly
// (the random tail never engages because the run is already done).
func TestRunGuidedReplaysPrefix(t *testing.T) {
	cfg := guidedConfig()
	orig, err := runGuided(cfg, nil, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := runGuided(cfg, orig.Schedule, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig.Schedule, replay.Schedule) {
		t.Fatalf("prefix replay diverged: %v vs %v", orig.Schedule, replay.Schedule)
	}
	if !reflect.DeepEqual(orig.Trace, replay.Trace) {
		t.Fatal("prefix replay reached a different trace")
	}
}

func TestCoverageAddTraceAndMerge(t *testing.T) {
	c := NewCoverage()
	fresh := c.AddTrace([]uint64{1, 2, 3, 2})
	if !reflect.DeepEqual(fresh, []uint64{1, 2, 3}) {
		t.Fatalf("fresh = %v", fresh)
	}
	if fresh = c.AddTrace([]uint64{3, 4}); !reflect.DeepEqual(fresh, []uint64{4}) {
		t.Fatalf("second AddTrace fresh = %v", fresh)
	}
	if c.Len() != 4 {
		t.Fatalf("coverage state wrong: len=%d", c.Len())
	}

	other := NewCoverageFrom([]uint64{4, 5})
	if fresh = c.AddTrace(other.Snapshot()); !reflect.DeepEqual(fresh, []uint64{5}) {
		t.Fatalf("merging %v added %v, want [5]", other.Snapshot(), fresh)
	}
	if got := c.Snapshot(); !reflect.DeepEqual(got, []uint64{1, 2, 3, 4, 5}) {
		t.Fatalf("Snapshot = %v", got)
	}

	// Digest is order-independent: building the same set in a different
	// insertion order yields the same digest.
	d1 := NewCoverageFrom([]uint64{5, 1, 3, 2, 4}).Digest()
	if d1 != c.Digest() {
		t.Fatal("digest depends on insertion order")
	}
	if NewCoverage().Digest() == d1 {
		t.Fatal("empty and non-empty coverage share a digest")
	}
}

func TestMutateScheduleValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	parent := []int{0, 1, 0, 1, 1, 0}
	for i := 0; i < 500; i++ {
		n := 2 + rng.Intn(3)
		child := MutateSchedule(rng, parent, n)
		if len(child) == 0 {
			t.Fatal("empty child")
		}
		for _, pid := range child {
			if pid < 0 || pid >= n {
				t.Fatalf("pid %d out of [0, %d)", pid, n)
			}
		}
	}
	if !reflect.DeepEqual(parent, []int{0, 1, 0, 1, 1, 0}) {
		t.Fatalf("parent mutated in place: %v", parent)
	}
	// Even an empty parent yields a usable child.
	if child := MutateSchedule(rng, nil, 2); len(child) == 0 {
		t.Fatal("empty child from empty parent")
	}
}

func TestMutateScheduleDeterministic(t *testing.T) {
	parent := []int{0, 1, 1, 0, 1}
	a := MutateSchedule(rand.New(rand.NewSource(99)), parent, 2)
	b := MutateSchedule(rand.New(rand.NewSource(99)), parent, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different children: %v vs %v", a, b)
	}
}

// TestShrinkCtxCancelled checks the satellite contract: a cancelled
// context stops shrinking early but still returns a failing schedule (the
// best found so far), never a broken or empty one.
func TestShrinkCtxCancelled(t *testing.T) {
	cfg := Config{Alg: "central", Object: "fetch-increment", N: 3, OpsPerProc: 2}
	rec, err := RunSchedule(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// An already-cancelled context must return the input schedule
	// unchanged — no shrink pass may start after cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got := ShrinkCtx(ctx, cfg, rec.Schedule, "")
	if !reflect.DeepEqual(got, rec.Schedule) {
		t.Fatalf("cancelled shrink altered the schedule: %v vs %v", got, rec.Schedule)
	}
}
