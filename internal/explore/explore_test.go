package explore

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"jayanti98/internal/universal"
)

func TestExhaustiveAllConstructionsN2(t *testing.T) {
	for _, alg := range universal.Names() {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			t.Parallel()
			rep, err := Exhaustive(Config{Alg: alg, Object: "fetch-increment", N: 2, OpsPerProc: 1}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failure != nil {
				t.Fatalf("%s: unexpected failure: %v\nevents:\n%v", alg, rep.Failure, rep.Record.Events)
			}
			if rep.Complete == 0 || rep.States == 0 {
				t.Fatalf("%s: empty exploration: %+v", alg, rep)
			}
			t.Logf("%s n=2: %d states, %d runs, %d complete", alg, rep.States, rep.Runs, rep.Complete)
		})
	}
}

func TestExhaustiveCentralN3(t *testing.T) {
	rep, err := Exhaustive(Config{Alg: "central", Object: "fetch-increment", N: 3, OpsPerProc: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failure != nil {
		t.Fatalf("unexpected failure: %v", rep.Failure)
	}
	if rep.Complete == 0 {
		t.Fatalf("no complete runs: %+v", rep)
	}
	t.Logf("central n=3: %d states, %d runs, %d complete", rep.States, rep.Runs, rep.Complete)
}

func TestExhaustiveQueueWorkload(t *testing.T) {
	rep, err := Exhaustive(Config{Alg: "group-update", Object: "queue", N: 2, OpsPerProc: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failure != nil {
		t.Fatalf("unexpected failure: %v", rep.Failure)
	}
}

// TestExhaustiveDeterministicAcrossWorkers: the report — including the
// per-branch state counts folded into States — must not depend on the
// worker count.
func TestExhaustiveDeterministicAcrossWorkers(t *testing.T) {
	cfg := Config{Alg: "group-update", Object: "fetch-increment", N: 2, OpsPerProc: 1}
	serial, err := Exhaustive(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Exhaustive(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if serial.States != parallel.States || serial.Runs != parallel.Runs || serial.Complete != parallel.Complete {
		t.Fatalf("worker count changed the exploration: serial %+v vs parallel %+v", serial, parallel)
	}
}

func TestRunScheduleRecordsAndSkips(t *testing.T) {
	cfg := Config{Alg: "central", Object: "fetch-increment", N: 2, OpsPerProc: 1}
	// 99 entries for a terminated/absent process must be skipped silently.
	rec, err := RunSchedule(cfg, []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failure != nil {
		t.Fatalf("unexpected failure: %v", rec.Failure)
	}
	if !rec.Completed {
		t.Fatalf("run did not complete: %+v", rec)
	}
	if len(rec.Schedule) != rec.Steps {
		t.Fatalf("executed schedule has %d entries but %d steps", len(rec.Schedule), rec.Steps)
	}
	if len(rec.Events) != 2*cfg.N*cfg.OpsPerProc {
		t.Fatalf("want %d events, got %v", 2*cfg.N*cfg.OpsPerProc, rec.Events)
	}
	for pid := 0; pid < cfg.N; pid++ {
		if len(rec.Tosses[pid]) == 0 {
			t.Fatalf("p%d consumed no tosses (marker toss missing): %+v", pid, rec.Tosses)
		}
	}
}

func TestBudgetExhaustionIsAFailure(t *testing.T) {
	cfg := Config{Alg: "central", Object: "fetch-increment", N: 2, OpsPerProc: 1, Budget: 2}
	rec, err := RunSchedule(cfg, []int{0, 1, 0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failure == nil || rec.Failure.Kind != FailBudgetExhausted {
		t.Fatalf("want %s, got %v", FailBudgetExhausted, rec.Failure)
	}
	if rec.Steps != 2 {
		t.Fatalf("budget 2 but %d steps executed", rec.Steps)
	}
}

func TestShrinkMinimizesBudgetFailure(t *testing.T) {
	cfg := Config{Alg: "central", Object: "fetch-increment", N: 2, OpsPerProc: 1, Budget: 2}
	long := []int{1, 0, 1, 0, 1, 0, 1, 0, 1, 0}
	shrunk := ShrinkCtx(context.Background(), cfg, long, FailBudgetExhausted)
	// The failure fires on the first step attempted past the budget, so
	// the minimal schedule has budget+1 = 3 entries.
	if len(shrunk) != 3 {
		t.Fatalf("want 3-step minimum, got %v", shrunk)
	}
	rec, err := RunSchedule(cfg, shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failure == nil || rec.Failure.Kind != FailBudgetExhausted {
		t.Fatalf("shrunk schedule does not fail: %+v", rec)
	}
	// The canonicalizing pass must have sorted the surviving entries.
	for i := 0; i+1 < len(shrunk); i++ {
		if shrunk[i] > shrunk[i+1] {
			t.Fatalf("shrunk schedule not canonical: %v", shrunk)
		}
	}
}

func TestShrinkReturnsInputWhenNotReproducible(t *testing.T) {
	cfg := Config{Alg: "central", Object: "fetch-increment", N: 2, OpsPerProc: 1}
	in := []int{0, 1, 0, 1}
	if got := ShrinkCtx(context.Background(), cfg, in, FailNonLinearizable); !reflect.DeepEqual(got, in) {
		t.Fatalf("want input back, got %v", got)
	}
}

func TestFuzzCleanOnCorrectConstruction(t *testing.T) {
	rep, err := Fuzz(Config{Alg: "central", Object: "fetch-increment", N: 4, OpsPerProc: 2},
		FuzzOptions{Samples: 30, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) != 0 {
		t.Fatalf("false positives on a correct construction: %+v", rep.Failures[0])
	}
	if rep.TotalSteps == 0 {
		t.Fatal("fuzz executed no steps")
	}
}

// TestFuzzDeterministicAcrossWorkers: per-sample seeds derive from the
// sample index, so the campaign fingerprint must not depend on worker
// count or scheduling.
func TestFuzzDeterministicAcrossWorkers(t *testing.T) {
	cfg := Config{Alg: "group-update", Object: "queue", N: 3, OpsPerProc: 2}
	a, err := Fuzz(cfg, FuzzOptions{Samples: 20, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fuzz(cfg, FuzzOptions{Samples: 20, Seed: 7, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalSteps != b.TotalSteps || len(a.Failures) != len(b.Failures) {
		t.Fatalf("worker count changed the campaign: %d/%d steps, %d/%d failures",
			a.TotalSteps, b.TotalSteps, len(a.Failures), len(b.Failures))
	}
}

func TestReplayRoundTripAndVerify(t *testing.T) {
	// Manufacture a real failure via an artificially tiny budget, then
	// check the whole persistence pipeline: fuzz -> shrink -> write ->
	// read -> bit-for-bit verify.
	cfg := Config{Alg: "central", Object: "fetch-increment", N: 2, OpsPerProc: 1, Budget: 2}
	dir := t.TempDir()
	rep, err := Fuzz(cfg, FuzzOptions{Samples: 1, Seed: 5, OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("want 1 failure, got %d", len(rep.Failures))
	}
	path := rep.Paths[0]
	if filepath.Dir(path) != dir {
		t.Fatalf("replay written to %s, want under %s", path, dir)
	}
	rp, err := ReadReplay(path)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Kind != FailBudgetExhausted || rp.N != 2 || rp.Alg != "central" {
		t.Fatalf("replay lost metadata: %+v", rp)
	}
	rec, diff, err := Verify(rp)
	if err != nil {
		t.Fatal(err)
	}
	if diff != "" {
		t.Fatalf("replay does not reproduce bit-for-bit: %s", diff)
	}
	if rec.Failure.Kind != FailBudgetExhausted {
		t.Fatalf("replay failure kind %v", rec.Failure.Kind)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Exhaustive(Config{Alg: "central", Object: "fetch-increment", N: 0, OpsPerProc: 1}, 1); err == nil {
		t.Fatal("n=0 must be rejected")
	}
	if _, err := RunSchedule(Config{Alg: "central", Object: "no-such-workload", N: 2, OpsPerProc: 1}, nil); err == nil {
		t.Fatal("unknown workload must be rejected")
	}
	if _, err := RunSchedule(Config{Alg: "no-such-alg", Object: "queue", N: 2, OpsPerProc: 1}, nil); err == nil {
		t.Fatal("unknown construction must be rejected")
	}
}

// TestFuzzCtxCancellation: a cancelled campaign stops dispatching samples
// and surfaces ctx.Err() instead of a report.
func TestFuzzCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := FuzzCtx(ctx, Config{Alg: "group-update", Object: "fetch-increment", N: 2, OpsPerProc: 1},
		FuzzOptions{Samples: 50, Seed: 1, Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Fatalf("cancelled campaign produced a report: %+v", rep)
	}
}

// TestExhaustiveCtxCancellation: a cancelled exhaustive search aborts
// mid-DFS with ctx.Err().
func TestExhaustiveCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := ExhaustiveCtx(ctx, Config{Alg: "central", Object: "fetch-increment", N: 3, OpsPerProc: 1}, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Fatalf("cancelled search produced a report: %+v", rep)
	}
}
