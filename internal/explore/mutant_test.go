//go:build mutation

package explore

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"jayanti98/internal/algos"
	"jayanti98/internal/universal"
)

// The mutation-tagged tests prove the harness detects real bugs: the
// deliberately broken group-update variant (merge-order bug, see
// universal.NewBrokenGroupUpdate) must be caught by both search modes,
// shrink to a short counterexample, and reproduce from its replay file.
// Run with: go test -tags mutation ./internal/explore/

func TestMutantGuard(t *testing.T) {
	if !universal.MutantAvailable {
		t.Fatal("mutation build tag set but MutantAvailable is false")
	}
}

func TestMutantCaughtByExhaustive(t *testing.T) {
	rep, err := Exhaustive(Config{Alg: BrokenGroupUpdate, Object: "fetch-increment", N: 2, OpsPerProc: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failure == nil {
		t.Fatalf("exhaustive search missed the seeded bug (%d states, %d complete runs)", rep.States, rep.Complete)
	}
	if rep.Failure.Kind != FailNonLinearizable {
		t.Fatalf("want %s, got %v", FailNonLinearizable, rep.Failure)
	}
	t.Logf("caught: %v\nschedule: %v", rep.Failure, rep.Record.Schedule)
}

// TestMutantExhaustiveMatchesReference: on the broken construction the
// live search reports exactly the replaying reference's failure and
// failing record, at one and four workers, and the two records shrink to
// the same replay.
func TestMutantExhaustiveMatchesReference(t *testing.T) {
	cfg := Config{Alg: BrokenGroupUpdate, Object: "fetch-increment", N: 2, OpsPerProc: 1}
	rep := checkAgainstReference(t, cfg)
	if rep.Failure == nil || rep.Record == nil {
		t.Fatalf("the search missed the seeded bug: %+v", rep)
	}
	ref, err := referenceExhaustive(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSchedule(cfg, ShrinkCtx(context.Background(), cfg, rep.Record.Schedule, rep.Failure.Kind))
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunSchedule(cfg, ShrinkCtx(context.Background(), cfg, ref.Record.Schedule, ref.Failure.Kind))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || got.Failure == nil {
		t.Fatalf("shrunk replays differ:\n  live      %+v\n  reference %+v", got, want)
	}
}

func TestMutantFuzzShrinkAndReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Alg: BrokenGroupUpdate, Object: "fetch-increment", N: 2, OpsPerProc: 1}
	rep, err := Fuzz(cfg, FuzzOptions{Samples: 200, Seed: 1, OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) == 0 {
		t.Fatal("200 random schedules missed the seeded bug")
	}
	t.Logf("%d/%d samples failed", len(rep.Failures), rep.Samples)
	rp0 := rep.Failures[0]
	if rp0.Kind != FailNonLinearizable {
		t.Fatalf("want %s, got %s (%s)", FailNonLinearizable, rp0.Kind, rp0.Detail)
	}
	if len(rp0.Schedule) > 20 {
		t.Fatalf("shrunk schedule still has %d steps (want <= 20): %v", len(rp0.Schedule), rp0.Schedule)
	}
	if rp0.OriginalLen < len(rp0.Schedule) {
		t.Fatalf("original length %d shorter than shrunk %d", rp0.OriginalLen, len(rp0.Schedule))
	}
	// Reproduce from the persisted file, bit-for-bit.
	rp, err := ReadReplay(rep.Paths[0])
	if err != nil {
		t.Fatal(err)
	}
	rec, diff, err := Verify(rp)
	if err != nil {
		t.Fatal(err)
	}
	if diff != "" {
		t.Fatalf("replay file does not reproduce bit-for-bit: %s", diff)
	}
	if rec.Failure == nil || rec.Failure.Kind != FailNonLinearizable {
		t.Fatalf("replay failure: %+v", rec.Failure)
	}
}

// TestTASMutantCaughtByExhaustive holds the zoo checking to the same
// standard: the broken Tromp–Vitányi variant (winner returns "lost", see
// tas.BrokenTV) must be flagged non-linearizable by the raw-mode harness —
// no linearization of one-shot test&set lets every operation return 1.
// Both engines must catch it; the mutant ships a patched bytecode twin
// precisely so this test covers the VM path too.
func TestTASMutantCaughtByExhaustive(t *testing.T) {
	if !algosHasBrokenTV() {
		t.Fatal("mutation build tag set but the broken TV variant is not registered")
	}
	rep, err := Exhaustive(Config{Alg: algos.BrokenTV, Object: "tas", N: 2, OpsPerProc: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failure == nil {
		t.Fatalf("exhaustive search missed the seeded TAS bug (%d states, %d complete runs)", rep.States, rep.Complete)
	}
	if rep.Failure.Kind != FailNonLinearizable {
		t.Fatalf("want %s, got %v", FailNonLinearizable, rep.Failure)
	}
	t.Logf("caught: %v\nschedule: %v", rep.Failure, rep.Record.Schedule)
}

func algosHasBrokenTV() bool {
	for _, name := range algos.Names() {
		if name == algos.BrokenTV {
			return true
		}
	}
	return false
}

// TestTASMutantFuzzShrinkAndReplay: fuzzing finds the TAS mutant too, and
// the shrunk replay reproduces bit-for-bit from its file — the same
// find/shrink/persist/verify loop the construction mutant exercises, but
// through the raw-mode runner with its synthesized events.
func TestTASMutantFuzzShrinkAndReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Alg: algos.BrokenTV, Object: "tas", N: 2, OpsPerProc: 1}
	rep, err := Fuzz(cfg, FuzzOptions{Samples: 200, Seed: 1, OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) == 0 {
		t.Fatal("200 random schedules missed the seeded TAS bug")
	}
	t.Logf("%d/%d samples failed", len(rep.Failures), rep.Samples)
	rp0 := rep.Failures[0]
	if rp0.Kind != FailNonLinearizable {
		t.Fatalf("want %s, got %s (%s)", FailNonLinearizable, rp0.Kind, rp0.Detail)
	}
	rp, err := ReadReplay(rep.Paths[0])
	if err != nil {
		t.Fatal(err)
	}
	rec, diff, err := Verify(rp)
	if err != nil {
		t.Fatal(err)
	}
	if diff != "" {
		t.Fatalf("replay file does not reproduce bit-for-bit: %s", diff)
	}
	if rec.Failure == nil || rec.Failure.Kind != FailNonLinearizable {
		t.Fatalf("replay failure: %+v", rec.Failure)
	}
	for _, ev := range rec.Events {
		if strings.HasSuffix(ev, "-> 0") {
			t.Fatalf("mutant produced a winner, the seeded bug is gone: %v", rec.Events)
		}
	}
}

// TestMutantPassesNaiveSchedules documents why the seeded bug needs
// schedule exploration at all: solo (sequential) and lockstep round-robin
// runs — the schedules ordinary unit tests exercise — both linearize.
func TestMutantPassesNaiveSchedules(t *testing.T) {
	cfg := Config{Alg: BrokenGroupUpdate, Object: "fetch-increment", N: 2, OpsPerProc: 1}
	var sequential, roundRobin []int
	for i := 0; i < 16; i++ {
		sequential = append(sequential, 0)
		roundRobin = append(roundRobin, 0, 1)
	}
	for i := 0; i < 16; i++ {
		sequential = append(sequential, 1)
	}
	for name, sched := range map[string][]int{"sequential": sequential, "round-robin": roundRobin} {
		rec, err := RunSchedule(cfg, sched)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Failure != nil {
			t.Fatalf("%s schedule unexpectedly catches the mutant: %v", name, rec.Failure)
		}
		if !rec.Completed {
			t.Fatalf("%s schedule did not complete: %+v", name, rec)
		}
	}
}

// TestMutantWalkerRestart: a failing walk leaves nothing behind on its
// walker. The broken construction's first failing and first clean seeds
// record the same on one walker, in both orders, as on walkers of their
// own.
func TestMutantWalkerRestart(t *testing.T) {
	cfg := Config{Alg: BrokenGroupUpdate, Object: "fetch-increment", N: 2, OpsPerProc: 1}
	failing, clean := int64(-1), int64(-1)
	for seed := int64(1); seed <= 200 && (failing < 0 || clean < 0); seed++ {
		rec, err := runGuided(cfg, nil, seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case rec.Failure != nil && failing < 0:
			failing = seed
		case rec.Failure == nil && clean < 0:
			clean = seed
		}
	}
	if failing < 0 || clean < 0 {
		t.Fatalf("seeds 1–200: failing %d, clean %d; want one of each", failing, clean)
	}
	inputs := []walkInput{{seed: failing}, {seed: clean}}
	for _, digests := range []bool{false, true} {
		checkRestartLeaksNothing(t, cfg, 2, digests, inputs)
	}
}
