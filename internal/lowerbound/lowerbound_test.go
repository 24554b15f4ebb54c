package lowerbound

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"jayanti98/internal/core"
	"jayanti98/internal/machine"
	"jayanti98/internal/objtype"
	"jayanti98/internal/stats"
	"jayanti98/internal/sweep"
	"jayanti98/internal/universal"
	"jayanti98/internal/wakeup"
)

// correctWakeupAlgorithms is every correct wakeup algorithm in the repo —
// the grid the race sweep and the determinism tests cover.
func correctWakeupAlgorithms() []struct {
	name string
	mk   func(n int) machine.Algorithm
} {
	return []struct {
		name string
		mk   func(n int) machine.Algorithm
	}{
		{"set-register", func(int) machine.Algorithm { return wakeup.SetRegister() }},
		{"move-courier", func(int) machine.Algorithm { return wakeup.MoveCourier() }},
		{"double-register", func(int) machine.Algorithm { return wakeup.DoubleRegister() }},
		{"counting-network", wakeup.CountingNetwork},
	}
}

// TestSweepWakeupParallelMatchesSerial pins the engine's determinism
// contract on every wakeup algorithm: identical results at parallelism 1,
// 4, and 16.
func TestSweepWakeupParallelMatchesSerial(t *testing.T) {
	ns := []int{2, 4, 8, 16}
	for _, alg := range correctWakeupAlgorithms() {
		serial, err := SweepWakeupCtx(context.Background(), alg.mk, ns, machine.ZeroTosses, 1)
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		for _, parallel := range []int{4, 16} {
			par, err := SweepWakeupCtx(context.Background(), alg.mk, ns, machine.ZeroTosses, parallel)
			if err != nil {
				t.Fatalf("%s parallel=%d: %v", alg.name, parallel, err)
			}
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("%s parallel=%d diverged:\nserial   %+v\nparallel %+v", alg.name, parallel, serial, par)
			}
		}
	}
}

// TestRaceSmallSweepEveryAlgorithm is the satellite -race test: a small
// sweep at parallelism 4 over every algorithm (plus a reduction sweep and
// a Monte-Carlo sweep), so `go test -race` exercises all the concurrent
// paths the report uses.
func TestRaceSmallSweepEveryAlgorithm(t *testing.T) {
	ns := []int{2, 4, 8}
	for _, alg := range correctWakeupAlgorithms() {
		results, err := SweepWakeupCtx(context.Background(), alg.mk, ns, machine.ZeroTosses, 4)
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		for _, r := range results {
			if !r.OK() {
				t.Fatalf("%s n=%d: %+v", alg.name, r.N, r)
			}
		}
	}
	specs := wakeup.Reductions()
	if _, err := SweepReductionCtx(context.Background(), specs[0], "group-update", ns, machine.ZeroTosses, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := ExpectedComplexityCtx(context.Background(), func(int) machine.Algorithm { return wakeup.DoubleRegister() },
		8, 12, sweep.Seed("race", "double-register", 8, 0), 4); err != nil {
		t.Fatal(err)
	}
}

// TestExpectedComplexityParallelMatchesSerial: the Monte-Carlo estimate
// must not depend on how samples are scheduled over workers.
func TestExpectedComplexityParallelMatchesSerial(t *testing.T) {
	mk := func(int) machine.Algorithm { return wakeup.DoubleRegister() }
	serial, err := ExpectedComplexityCtx(context.Background(), mk, 16, 20, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ExpectedComplexityCtx(context.Background(), mk, 16, 20, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("parallel estimate diverged:\nserial   %+v\nparallel %+v", serial, par)
	}
	// And the serial form is the context form at 1 worker.
	wrapped, err := ExpectedComplexity(mk, 16, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, wrapped) {
		t.Fatal("ExpectedComplexity must equal its parallelism-1 form")
	}
}

// TestVerifyIndistinguishabilityParallelMatchesSerial covers the fanned
// per-process (S,A)-replays of E5.
func TestVerifyIndistinguishabilityParallelMatchesSerial(t *testing.T) {
	for _, alg := range []machine.Algorithm{wakeup.SetRegister(), wakeup.MoveCourier()} {
		serial, serialErr := VerifyIndistinguishabilityCtx(context.Background(), alg, 8, machine.ZeroTosses, 1)
		par, parErr := VerifyIndistinguishabilityCtx(context.Background(), alg, 8, machine.ZeroTosses, 4)
		if (serialErr == nil) != (parErr == nil) {
			t.Fatalf("%s: error mismatch: %v vs %v", alg.Name(), serialErr, parErr)
		}
		if serial != par || serial != 8 {
			t.Fatalf("%s: checked %d (serial) vs %d (parallel), want 8", alg.Name(), serial, par)
		}
	}
}

// TestMoveScheduleComparisonConcurrent runs the E9 comparison from many
// goroutines with derived seeds — the satellite RNG bugfix's regression
// test: no shared rand state, deterministic per-seed results.
func TestMoveScheduleComparisonConcurrent(t *testing.T) {
	const n = 64
	want := make([][]MoveScheduleResult, 4)
	for i := range want {
		want[i] = MoveScheduleComparison(n, sweep.Seed("E9", "move-schedule", n, i))
	}
	var wg sync.WaitGroup
	got := make([][]MoveScheduleResult, len(want))
	for i := range want {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = MoveScheduleComparison(n, sweep.Seed("E9", "move-schedule", n, i))
		}(i)
	}
	wg.Wait()
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("seed %d: concurrent run diverged from serial run", i)
		}
	}
}

func TestHashTossesDeterministicAndSpread(t *testing.T) {
	ta1, ta2 := HashTosses(1), HashTosses(1)
	if ta1(3, 7) != ta2(3, 7) {
		t.Fatal("same seed must give identical assignments")
	}
	if HashTosses(1)(0, 0) == HashTosses(2)(0, 0) && HashTosses(1)(0, 1) == HashTosses(2)(0, 1) {
		t.Fatal("different seeds should diverge quickly")
	}
	// Parity should be roughly balanced (the algorithms use toss&1).
	ones := 0
	for j := 0; j < 1000; j++ {
		ones += int(ta1(0, j) & 1)
	}
	if ones < 350 || ones > 650 {
		t.Fatalf("toss parity badly skewed: %d/1000 ones", ones)
	}
}

func TestMeasureWakeupSetRegister(t *testing.T) {
	res, err := MeasureWakeup(wakeup.SetRegister(), 16, machine.ZeroTosses)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("checks failed: %+v", res)
	}
	if res.WinnerSteps < res.Bound {
		t.Fatalf("winner %d below bound %d", res.WinnerSteps, res.Bound)
	}
	if res.Bound != core.Log4Ceil(16) {
		t.Fatalf("bound = %d", res.Bound)
	}
	if res.MaxSteps < 16 {
		t.Fatalf("adversary should force ≥ n steps on set-register, got %d", res.MaxSteps)
	}
}

func TestSweepWakeupBoundsHold(t *testing.T) {
	ns := []int{2, 4, 8, 16, 32, 64}
	results, err := SweepWakeupCtx(context.Background(), func(n int) machine.Algorithm { return wakeup.SetRegister() }, ns, machine.ZeroTosses, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ns) {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if !r.OK() {
			t.Fatalf("n=%d: %+v", r.N, r)
		}
		if r.WinnerSteps < r.Bound {
			t.Fatalf("n=%d: winner %d < bound %d", r.N, r.WinnerSteps, r.Bound)
		}
	}
}

func TestExpectedComplexityRandomized(t *testing.T) {
	res, err := ExpectedComplexity(func(n int) machine.Algorithm { return wakeup.DoubleRegister() }, 16, 25, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("%d failed runs", res.Failures)
	}
	if res.Winner.Mean < float64(res.Bound) {
		t.Fatalf("E[winner steps] = %.2f below bound %d", res.Winner.Mean, res.Bound)
	}
	if res.Samples != 25 || res.Winner.N != 25 {
		t.Fatalf("sample bookkeeping wrong: %+v", res)
	}
}

func TestVerifyIndistinguishabilityAcrossAlgorithms(t *testing.T) {
	algs := []machine.Algorithm{wakeup.SetRegister(), wakeup.MoveCourier()}
	for _, alg := range algs {
		checked, err := VerifyIndistinguishability(alg, 8, machine.ZeroTosses)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if checked != 8 {
			t.Fatalf("%s: checked %d subsets, want 8", alg.Name(), checked)
		}
	}
}

func TestBuildReductionUnknownConstruction(t *testing.T) {
	specs := wakeup.Reductions()
	if _, _, err := BuildReduction(specs[0], "nope", 4); err == nil {
		t.Fatal("unknown construction must error")
	}
}

func TestSweepReductionFetchIncrement(t *testing.T) {
	var spec wakeup.ReductionSpec
	for _, s := range wakeup.Reductions() {
		if s.Name == "fetch&increment" {
			spec = s
		}
	}
	results, err := SweepReductionCtx(context.Background(), spec, "group-update", []int{2, 4, 8, 16}, machine.ZeroTosses, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.OK() {
			t.Fatalf("n=%d: %+v", r.N, r)
		}
		if r.WinnerSteps < r.PerOpBound {
			t.Fatalf("n=%d: winner %d < per-op bound %d", r.N, r.WinnerSteps, r.PerOpBound)
		}
		if r.Construction != "group-update" || r.OpsPerProcess != 1 {
			t.Fatalf("metadata wrong: %+v", r)
		}
	}
}

func TestAllReductionsOverGroupUpdateSmall(t *testing.T) {
	for _, spec := range wakeup.Reductions() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			results, err := SweepReductionCtx(context.Background(), spec, "group-update", []int{4, 8}, machine.ZeroTosses, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				if !r.OK() {
					t.Fatalf("n=%d: spec=%v l51=%v t61=%v", r.N, r.SpecErr, r.Lemma51Err, r.Theorem61Err)
				}
			}
		})
	}
}

func TestSweepConstructionShapes(t *testing.T) {
	ns := []int{2, 4, 8, 16, 32, 64, 128}
	typ := func(n int) objtype.Type { return objtype.NewFetchIncrement(16) }

	gu, guGrowth, err := SweepConstructionCtx(context.Background(),
		func(n int) universal.Construction { return universal.NewGroupUpdate(typ(n), n, 0) },
		FetchIncOp, ns, 1)
	if err != nil {
		t.Fatal(err)
	}
	if guGrowth != stats.GrowthLogarithmic {
		t.Fatalf("group-update growth = %v, want logarithmic (%v)", guGrowth, gu)
	}
	for _, r := range gu {
		if r.MaxSteps > r.StepBound {
			t.Fatalf("n=%d: %d steps above bound %d", r.N, r.MaxSteps, r.StepBound)
		}
		if r.MaxSteps < r.LowerBound {
			t.Fatalf("n=%d: %d steps below the Ω(log n) lower bound %d?!", r.N, r.MaxSteps, r.LowerBound)
		}
	}

	he, heGrowth, err := SweepConstructionCtx(context.Background(),
		func(n int) universal.Construction { return universal.NewHerlihy(typ(n), n, 0) },
		FetchIncOp, ns, 1)
	if err != nil {
		t.Fatal(err)
	}
	if heGrowth != stats.GrowthLinear {
		t.Fatalf("herlihy growth = %v, want linear (%v)", heGrowth, he)
	}
}

func TestMoveScheduleComparison(t *testing.T) {
	results := MoveScheduleComparison(64, 1)
	if len(results) != 2 {
		t.Fatalf("got %d workloads", len(results))
	}
	for _, r := range results {
		if !r.SecretiveLegal {
			t.Fatalf("%s: secretive schedule illegal", r.Workload)
		}
		if r.SecretiveMax > 2 {
			t.Fatalf("%s: secretive max movers = %d", r.Workload, r.SecretiveMax)
		}
		if !r.Lemma42Verified {
			t.Fatalf("%s: Lemma 4.2 failed", r.Workload)
		}
	}
	// The chain workload's naive schedule must leak everything.
	if results[0].NaiveMaxMovers != 64 {
		t.Fatalf("chain naive movers = %d, want 64", results[0].NaiveMaxMovers)
	}
}

func TestRMWUnitTime(t *testing.T) {
	res, err := RMWUnitTime(objtype.NewFetchIncrement(16), 32, FetchIncOp)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.StepsPerOp != 1 {
		t.Fatalf("RMW result: %+v", res)
	}
	// Queue too: dequeue from the wakeup queue.
	res, err = RMWUnitTime(objtype.NewWakeupQueue(), 16, func(n, pid int) objtype.Op {
		return objtype.Op{Name: objtype.OpDequeue}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("RMW queue: %+v", res)
	}
}

func TestCheaterCaughtEndToEnd(t *testing.T) {
	run, err := core.RunAll(wakeup.Cheater(), 64, machine.ZeroTosses, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	catch, err := core.CatchFastWakeup(run)
	if err != nil {
		t.Fatal(err)
	}
	if catch == nil {
		t.Fatal("cheater must be caught at n=64")
	}
	if catch.S.Len() > 4 {
		t.Fatalf("|S| = %d after 1 step, want ≤ 4", catch.S.Len())
	}
}

func TestRegisterWidthProfile(t *testing.T) {
	results, err := RegisterWidthProfile(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d implementations", len(results))
	}
	byName := make(map[string]WidthResult, len(results))
	for _, r := range results {
		byName[r.Implementation] = r
		if r.MaxStepsPerOp < r.LowerBound && r.Linearizable {
			t.Fatalf("%s: %d steps below the lower bound %d", r.Implementation, r.MaxStepsPerOp, r.LowerBound)
		}
	}
	// The log-carrying constructions write registers orders of magnitude
	// wider than the counting network's toggles and counters.
	if byName["counting-network"].MaxRegisterBits > 64 {
		t.Fatalf("counting network registers too wide: %d bits", byName["counting-network"].MaxRegisterBits)
	}
	if byName["group-update"].MaxRegisterBits < 4*byName["counting-network"].MaxRegisterBits {
		t.Fatalf("group-update registers (%d bits) should dwarf the counting network's (%d bits)",
			byName["group-update"].MaxRegisterBits, byName["counting-network"].MaxRegisterBits)
	}
	if byName["herlihy"].MaxRegisterBits < 4*byName["counting-network"].MaxRegisterBits {
		t.Fatalf("herlihy registers (%d bits) should dwarf the counting network's (%d bits)",
			byName["herlihy"].MaxRegisterBits, byName["counting-network"].MaxRegisterBits)
	}
}

func TestCountingNetworkSweepGrowth(t *testing.T) {
	// The counting network's forced cost must grow (it is ≥ the Ω(log n)
	// bound) but stay well under Herlihy's linear cost at large n.
	ns := []int{4, 16, 64, 256}
	var last WakeupResult
	for _, n := range ns {
		res, err := MeasureWakeup(wakeup.CountingNetwork(n), n, machine.ZeroTosses)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK() {
			t.Fatalf("n=%d: %+v", n, res)
		}
		if res.WinnerSteps < res.Bound {
			t.Fatalf("n=%d: winner %d below bound %d", n, res.WinnerSteps, res.Bound)
		}
		last = res
	}
	if last.MaxSteps >= 256 {
		t.Fatalf("counting network forced steps at n=256 should be well below n, got %d", last.MaxSteps)
	}
}

func TestReductionsAcrossAllConstructions(t *testing.T) {
	// Corollary 6.1 is construction-agnostic: the wakeup reductions must be
	// correct over every implementation of the object, and the winner's
	// cost must respect the bound regardless of which construction backs it.
	specs := wakeup.Reductions()
	for _, construction := range []string{"group-update", "herlihy", "central"} {
		construction := construction
		t.Run(construction, func(t *testing.T) {
			for _, spec := range []wakeup.ReductionSpec{specs[0], specs[5], specs[7]} { // fetch&increment, queue, read-increment
				for _, n := range []int{4, 8} {
					alg, _, err := BuildReduction(spec, construction, n)
					if err != nil {
						t.Fatal(err)
					}
					res, err := MeasureWakeup(alg, n, machine.ZeroTosses)
					if err != nil {
						t.Fatalf("%s n=%d: %v", spec.Name, n, err)
					}
					if !res.OK() {
						t.Fatalf("%s/%s n=%d: spec=%v l51=%v t61=%v",
							construction, spec.Name, n, res.SpecErr, res.Lemma51Err, res.Theorem61Err)
					}
				}
			}
		})
	}
}

// TestMeasureConstructionAllocs pins the allocation count of E7's
// measurement at n = 16: one fetch&increment per process on Group-Update
// under the adversary. Its log work allocates little: merge sizes each
// log once and dedups on a stack bitset, and the response replay applies
// the type on uint64, with small counter states boxed once in a table.
// With per-merge maps, appends and big.Int arithmetic it took 2704
// allocations.
func TestMeasureConstructionAllocs(t *testing.T) {
	const n, maxAllocs = 16, 760 // measured: 687
	mk := func(n int) universal.Construction {
		return universal.NewGroupUpdate(objtype.NewFetchIncrement(64), n, 0)
	}
	got := testing.AllocsPerRun(5, func() {
		if _, err := MeasureConstruction(mk, FetchIncOp, n); err != nil {
			t.Fatal(err)
		}
	})
	if got > maxAllocs {
		t.Fatalf("MeasureConstruction(group-update, n=%d) allocates %.0f times, want ≤ %d", n, got, maxAllocs)
	}
}
