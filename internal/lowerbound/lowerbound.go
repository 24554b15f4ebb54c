// Package lowerbound is the experiment harness: it runs the adversary of
// package core against wakeup algorithms and object implementations,
// measures forced shared-access step counts, validates every checkable
// lemma and theorem of the paper, and aggregates sweeps over n into the
// tables reported in EXPERIMENTS.md.
//
// Experiment map (see DESIGN.md §3):
//
//	E1  MeasureWakeup / SweepWakeupCtx       — Theorem 6.1 bound per run
//	E2  ExpectedComplexityCtx                — randomized bound (Lemma 3.1)
//	E3  SweepReductionCtx                    — Theorem 6.2 per-type bounds
//	E4  MeasureWakeup (UPGrowthOK)           — Lemma 5.1
//	E5  VerifyIndistinguishabilityCtx        — Lemma 5.2
//	E6  core.CatchFastWakeup                 — proof mechanics on a cheater
//	E7  SweepConstructionCtx (group-update)  — tightness: O(log n)
//	E8  SweepConstructionCtx (herlihy)       — baseline: Θ(n)
//	E9  MoveScheduleComparison               — Section 4 motivation
//	E10 RMWUnitTime                          — Section 7 observation
//
// Every sweep takes a context and a parallelism, and fans its grid out
// over up to `parallel` worker goroutines (≤ 0 means one per CPU) through
// the engine in package sweep. Its results are identical at every
// parallelism: each grid point owns its algorithm, construction, memory,
// and (for randomized sweeps) an RNG seed derived from its coordinates,
// and results are collected in index order behind a barrier.
// Cancellation stops dispatching grid points and returns ctx.Err()
// (sweep.MapCtx semantics). ExpectedComplexity and
// VerifyIndistinguishability keep a serial, uncancellable form for the
// benchmark module (perfbench), which calls them.
package lowerbound

import (
	"context"
	"fmt"
	"sync"

	"jayanti98/internal/core"
	"jayanti98/internal/machine"
	"jayanti98/internal/objtype"
	"jayanti98/internal/obs"
	"jayanti98/internal/shmem"
	"jayanti98/internal/stats"
	"jayanti98/internal/sweep"
	"jayanti98/internal/universal"
	"jayanti98/internal/wakeup"
)

// Adversary-loop metrics, on the process Default registry. In paper
// terms: adversary_rounds_total counts executed rounds of the §5
// (All,A)-run loop (each round is one five-phase adversary move), and
// adversary_steps_total counts the shared-access steps of phases 2–5 the
// executor charged to processes — the quantity t(R) maximizes and
// Theorem 6.1 lower-bounds. Aggregated per run from the existing step
// counters (core.AllRun.Rounds / .Steps), so the hot loop itself is
// untouched.
var (
	advMetricsOnce sync.Once
	advRounds      *obs.Counter
	advSteps       *obs.Counter
	advRuns        *obs.Counter
)

func adversaryMetrics() (rounds, steps, runs *obs.Counter) {
	advMetricsOnce.Do(func() {
		r := obs.Default()
		advRounds = r.Counter("adversary_rounds_total", "Rounds executed by the §5 adversary loop, across all runs.", nil)
		advSteps = r.Counter("adversary_steps_total", "Shared-access steps forced by the adversary (phases 2–5), across all runs.", nil)
		advRuns = r.Counter("adversary_runs_total", "Completed (All,A)-runs.", nil)
	})
	return advRounds, advSteps, advRuns
}

// recordRun folds one completed (All,A)-run into the adversary counters.
func recordRun(run *core.AllRun) {
	rounds, steps, runs := adversaryMetrics()
	rounds.Add(int64(len(run.Rounds)))
	total := 0
	for _, s := range run.Steps {
		total += s
	}
	steps.Add(int64(total))
	runs.Inc()
}

// HashTosses returns a deterministic pseudo-random toss assignment keyed by
// seed (a splitmix64-style hash of (seed, pid, j)). Different seeds give
// independent-looking assignments; the same seed always gives the same
// assignment, so experiments are reproducible.
func HashTosses(seed int64) machine.TossAssignment {
	return func(pid, j int) int64 {
		z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(pid+1)*0xbf58476d1ce4e5b9 + uint64(j+1)*0x94d049bb133111eb
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		return int64(z >> 1)
	}
}

// WakeupResult is one adversary run of a wakeup algorithm, with every
// check the paper's Section 5–6 machinery provides.
type WakeupResult struct {
	Algorithm string
	N         int
	// Rounds the run took.
	Rounds int
	// MaxSteps is t(R): the worst per-process shared-access count.
	MaxSteps int
	// WinnerSteps is the fewest steps over processes that returned 1 —
	// the quantity Theorem 6.1 lower-bounds.
	WinnerSteps int
	// Bound is ⌈log₄ n⌉.
	Bound int
	// TotalSteps across all processes.
	TotalSteps int
	// SpecErr, Lemma51Err, Theorem61Err record check failures (nil = ok).
	SpecErr      error
	Lemma51Err   error
	Theorem61Err error
}

// OK reports whether every check passed.
func (r WakeupResult) OK() bool {
	return r.SpecErr == nil && r.Lemma51Err == nil && r.Theorem61Err == nil
}

// MeasureWakeup runs alg for n processes under the adversary with toss
// assignment ta and returns the measurements and check outcomes.
func MeasureWakeup(alg machine.Algorithm, n int, ta machine.TossAssignment) (WakeupResult, error) {
	run, err := core.RunAll(alg, n, ta, core.Config{NoHistory: true})
	if err != nil {
		return WakeupResult{}, fmt.Errorf("lowerbound: %s n=%d: %w", alg.Name(), n, err)
	}
	recordRun(run)
	res := WakeupResult{
		Algorithm:    alg.Name(),
		N:            n,
		Rounds:       len(run.Rounds),
		Bound:        core.Log4Ceil(n),
		SpecErr:      core.CheckWakeupRun(run),
		Lemma51Err:   core.CheckLemma51(run),
		Theorem61Err: core.VerifyTheorem61(run),
	}
	res.MaxSteps, _ = run.MaxSteps()
	for pid, steps := range run.Steps {
		res.TotalSteps += steps
		_ = pid
	}
	winners := core.WakeupWinners(run.Returns)
	res.WinnerSteps = -1
	for _, w := range winners {
		if res.WinnerSteps < 0 || run.Steps[w] < res.WinnerSteps {
			res.WinnerSteps = run.Steps[w]
		}
	}
	return res, nil
}

// SweepWakeupCtx measures mk(n) for each n in ns (E1/E3 sweeps). Each
// grid point builds its own algorithm instance via mk and runs against its
// own simulated memory, so work items share nothing; results come back in
// ns order. ta must be a pure function of (pid, j), as HashTosses and
// machine.ZeroTosses are. On cancellation the completed prefix comes back
// with ctx.Err().
func SweepWakeupCtx(ctx context.Context, mk func(n int) machine.Algorithm, ns []int, ta machine.TossAssignment, parallel int) ([]WakeupResult, error) {
	return sweep.MapCtx(ctx, parallel, len(ns), func(i int) (WakeupResult, error) {
		return MeasureWakeup(mk(ns[i]), ns[i], ta)
	})
}

// ExpectedResult is a Monte-Carlo estimate of the expected shared-access
// complexity of a randomized wakeup algorithm against the adversary
// (E2, the randomized form of Theorem 6.1 via Lemma 3.1 with c = 1).
type ExpectedResult struct {
	Algorithm string
	N         int
	Samples   int
	// Winner summarizes the winner's steps across toss assignments.
	Winner stats.Summary
	// Max summarizes t(R) across toss assignments.
	Max stats.Summary
	// Bound is ⌈log₄ n⌉; the theorem asserts E[winner steps] ≥ c·log₄ n.
	Bound int
	// Failures counts runs whose checks failed.
	Failures int
}

// ExpectedComplexity is ExpectedComplexityCtx, serial and uncancellable.
func ExpectedComplexity(mk func(n int) machine.Algorithm, n, samples int, seed int64) (ExpectedResult, error) {
	return ExpectedComplexityCtx(context.Background(), mk, n, samples, seed, 1)
}

// ExpectedComplexityCtx estimates the expected complexity of mk(n) over
// `samples` pseudo-random toss assignments derived from seed. Sample i's
// toss assignment is seeded with sweep.Derive(seed, i) — a pure function
// of (seed, i) — so every sample sees the same randomness at every
// parallelism level and the estimate is byte-for-byte reproducible.
// Cancellation abandons the estimate and returns ctx.Err().
func ExpectedComplexityCtx(ctx context.Context, mk func(n int) machine.Algorithm, n, samples int, seed int64, parallel int) (ExpectedResult, error) {
	res := ExpectedResult{
		Algorithm: mk(n).Name(),
		N:         n,
		Samples:   samples,
		Bound:     core.Log4Ceil(n),
	}
	type sample struct {
		winner, max float64
		ok          bool
	}
	out, err := sweep.MapCtx(ctx, parallel, samples, func(i int) (sample, error) {
		r, err := MeasureWakeup(mk(n), n, HashTosses(sweep.Derive(seed, i)))
		if err != nil {
			return sample{}, err
		}
		return sample{winner: float64(r.WinnerSteps), max: float64(r.MaxSteps), ok: r.OK()}, nil
	})
	if err != nil {
		return res, err
	}
	winner := make([]float64, 0, samples)
	maxs := make([]float64, 0, samples)
	for _, s := range out {
		if !s.ok {
			res.Failures++
		}
		winner = append(winner, s.winner)
		maxs = append(maxs, s.max)
	}
	res.Winner = stats.Summarize(winner)
	res.Max = stats.Summarize(maxs)
	return res, nil
}

// VerifyIndistinguishability is VerifyIndistinguishabilityCtx, serial and
// uncancellable.
func VerifyIndistinguishability(alg machine.Algorithm, n int, ta machine.TossAssignment) (int, error) {
	return VerifyIndistinguishabilityCtx(context.Background(), alg, n, ta, 1)
}

// VerifyIndistinguishabilityCtx checks Lemma 5.2 (E5) on one adversary
// run: for every process p, with S = UP(p, steps(p)), the (S,A)-run is
// indistinguishable from the (All,A)-run. It returns the number of
// subsets checked and the first violation, if any. The per-process
// (S,A)-run replays only read the shared (All,A)-run (each builds its own
// memory and machines), so they are independent; the checked count and
// first violation match the serial pid-order scan. On cancellation the
// count of subsets checked so far comes back with ctx.Err().
func VerifyIndistinguishabilityCtx(ctx context.Context, alg machine.Algorithm, n int, ta machine.TossAssignment, parallel int) (int, error) {
	run, err := core.RunAll(alg, n, ta, core.Config{})
	if err != nil {
		return 0, err
	}
	out, err := sweep.MapCtx(ctx, parallel, n, func(pid int) (struct{}, error) {
		s := run.UPProcAt(pid, run.Steps[pid]).Clone()
		sub, err := core.RunSub(run, s)
		if err != nil {
			return struct{}{}, fmt.Errorf("lowerbound: p%d: %w", pid, err)
		}
		if err := core.CheckIndist(run, sub); err != nil {
			return struct{}{}, fmt.Errorf("lowerbound: p%d (S=%v): %w", pid, s, err)
		}
		return struct{}{}, nil
	})
	return len(out), err
}

// BuildReduction assembles the wakeup algorithm of a Theorem 6.2 reduction
// over an object implemented by the named construction ("group-update",
// "herlihy", or "central").
func BuildReduction(spec wakeup.ReductionSpec, construction string, n int) (machine.Algorithm, universal.Construction, error) {
	obj, err := universal.New(construction, spec.Type(n), n, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("lowerbound: %w", err)
	}
	return spec.Build(obj), obj, nil
}

// ReductionResult is one measurement of a Theorem 6.2 reduction (E3).
type ReductionResult struct {
	WakeupResult
	// Type is the implemented object type.
	Type string
	// Construction implements the object.
	Construction string
	// OpsPerProcess is the reduction's object-operation budget.
	OpsPerProcess int
	// PerOpBound is the per-operation lower bound implied by Corollary
	// 6.1: ⌈log₄ n⌉ / OpsPerProcess (integer floor of the winner's budget
	// split across its object operations).
	PerOpBound int
}

// SweepReductionCtx measures one reduction over a construction for each
// n. Every grid point builds its own construction instance (fresh
// registers), so items share nothing.
func SweepReductionCtx(ctx context.Context, spec wakeup.ReductionSpec, construction string, ns []int, ta machine.TossAssignment, parallel int) ([]ReductionResult, error) {
	return sweep.MapCtx(ctx, parallel, len(ns), func(i int) (ReductionResult, error) {
		n := ns[i]
		alg, obj, err := BuildReduction(spec, construction, n)
		if err != nil {
			return ReductionResult{}, err
		}
		wr, err := MeasureWakeup(alg, n, ta)
		if err != nil {
			return ReductionResult{}, err
		}
		return ReductionResult{
			WakeupResult:  wr,
			Type:          obj.Type().Name(),
			Construction:  construction,
			OpsPerProcess: spec.OpsPerProcess,
			PerOpBound:    core.Log4Ceil(n) / spec.OpsPerProcess,
		}, nil
	})
}

// ConstructionResult is one measurement of a universal construction's
// worst-case per-operation cost under the adversary (E7/E8).
type ConstructionResult struct {
	Construction string
	Type         string
	N            int
	// MaxSteps is the adversary-forced worst per-process step count for a
	// single operation.
	MaxSteps int
	// StepBound is the construction's documented worst case (0 if not
	// wait-free).
	StepBound int
	// LowerBound is ⌈log₄ n⌉ — no oblivious construction can beat it.
	LowerBound int
}

// MeasureConstruction runs one op per process on the construction under
// the adversary and reports the forced worst-case per-op cost.
func MeasureConstruction(mk func(n int) universal.Construction, op func(n, pid int) objtype.Op, n int) (ConstructionResult, error) {
	obj := mk(n)
	alg := machine.New(obj.Name(), func(e *machine.Env) shmem.Value {
		return obj.Invoke(e, op(n, e.ID()))
	})
	run, err := core.RunAll(alg, n, machine.ZeroTosses, core.Config{NoHistory: true})
	if err != nil {
		return ConstructionResult{}, fmt.Errorf("lowerbound: %s n=%d: %w", obj.Name(), n, err)
	}
	recordRun(run)
	maxSteps, _ := run.MaxSteps()
	return ConstructionResult{
		Construction: obj.Name(),
		Type:         obj.Type().Name(),
		N:            n,
		MaxSteps:     maxSteps,
		StepBound:    obj.StepBound(),
		LowerBound:   core.Log4Ceil(n),
	}, nil
}

// SweepConstructionCtx measures the construction across ns and classifies
// the growth of its forced cost. mk is invoked once per grid point inside
// its work item, so each measurement owns its construction and simulated
// memory; the growth fit happens after the barrier, over the index-ordered
// results. On cancellation the partial results come back with ctx.Err()
// and an empty growth classification.
func SweepConstructionCtx(ctx context.Context, mk func(n int) universal.Construction, op func(n, pid int) objtype.Op, ns []int, parallel int) ([]ConstructionResult, stats.Growth, error) {
	out, err := sweep.MapCtx(ctx, parallel, len(ns), func(i int) (ConstructionResult, error) {
		return MeasureConstruction(mk, op, ns[i])
	})
	if err != nil {
		return out, "", err
	}
	return out, ConstructionGrowth(ns, out), nil
}

// ConstructionGrowth classifies how a construction's forced per-op cost
// grows across the sweep's process counts (empty with fewer than three
// points — no fit is meaningful). It is shared by the in-process sweep
// above and the distributed shard merge (internal/dist), which re-derives
// the classification from the index-ordered shard results; both paths
// must see the same function so a distributed sweep stays byte-identical
// to a serial one.
func ConstructionGrowth(ns []int, results []ConstructionResult) stats.Growth {
	if len(ns) < 3 {
		return ""
	}
	ys := make([]float64, 0, len(results))
	for _, r := range results {
		ys = append(ys, float64(r.MaxSteps))
	}
	growth, _, _ := stats.ClassifyGrowth(ns, ys)
	return growth
}

// FetchIncOp is the op generator for fetch&increment sweeps.
func FetchIncOp(n, pid int) objtype.Op { return objtype.Op{Name: objtype.OpFetchIncrement} }
