package main

import (
	"fmt"
	"runtime"
	"time"

	"jayanti98/internal/core"
	"jayanti98/internal/lowerbound"
	"jayanti98/internal/machine"
	"jayanti98/internal/moveplan"
	"jayanti98/internal/objtype"
	"jayanti98/internal/obs"
	"jayanti98/internal/shmem"
	"jayanti98/internal/sweep"
	"jayanti98/internal/universal"
	"jayanti98/internal/wakeup"
)

// The adversary workload is the paper's own path: Theorem 6.1
// measurements through lowerbound and core, on both process engines.
// It never touches explore, llsc, linz or jobs.
//
// Kind weights place the pooled percentiles mid-band: sorted by latency
// the cycle is E2 ×3 | E5 ×3 | E7, E1 ×2, so p50 falls in the E5 band and
// p90 in the E7/E1 band.

// adversarySteps is lowerbound's count of steps the adversary forced,
// across every MeasureWakeup and MeasureConstruction call.
var adversarySteps = obs.Default().Counter("adversary_steps_total", "", nil)

func newAdversary(seed int64, pins paperRefs) closedRun {
	groupUpdate := func(n int) universal.Construction {
		return universal.NewGroupUpdate(objtype.NewFetchIncrement(64), n, 0)
	}
	// counted runs f and reports the adversary steps it forced.
	counted := func(f func() error) (opOut, error) {
		before := adversarySteps.Value()
		err := f()
		return opOut{steps: adversarySteps.Value() - before}, err
	}
	kinds := []opKind{
		{name: "lowerbound.MeasureWakeup E1", weight: 2, run: func(tr *tracer, parent, i int) (opOut, error) {
			return counted(func() error {
				r, err := lowerbound.MeasureWakeup(wakeup.SetRegister(), pins.e1N, machine.ZeroTosses)
				if err != nil {
					return err
				}
				if !r.OK() || r.WinnerSteps != pins.e1WinnerSteps || r.Bound != pins.e1Bound {
					return fmt.Errorf("E1 n=%d: ok=%v winner-steps=%d bound=%d, want ok winner-steps=%d bound=%d",
						pins.e1N, r.OK(), r.WinnerSteps, r.Bound, pins.e1WinnerSteps, pins.e1Bound)
				}
				return nil
			})
		}},
		{name: "lowerbound.MeasureConstruction E7", weight: 1, run: func(tr *tracer, parent, i int) (opOut, error) {
			return counted(func() error {
				r, err := lowerbound.MeasureConstruction(groupUpdate, lowerbound.FetchIncOp, pins.e7N)
				if err != nil {
					return err
				}
				if r.MaxSteps != pins.e7ForcedSteps {
					return fmt.Errorf("E7 n=%d: forced steps/op %d, want %d", pins.e7N, r.MaxSteps, pins.e7ForcedSteps)
				}
				return nil
			})
		}},
		{name: "lowerbound.ExpectedComplexity E2", weight: 3, run: func(tr *tracer, parent, i int) (opOut, error) {
			return counted(func() error {
				r, err := lowerbound.ExpectedComplexity(func(int) machine.Algorithm { return wakeup.DoubleRegister() },
					pins.e2N, pins.e2Samples, tossSeed(seed, i))
				if err != nil {
					return err
				}
				if r.Failures != 0 || r.Samples != pins.e2Samples || r.Bound != core.Log4Ceil(pins.e2N) {
					return fmt.Errorf("E2 n=%d: %d of %d samples failed their checks", pins.e2N, r.Failures, r.Samples)
				}
				return nil
			})
		}},
		{name: "lowerbound.VerifyIndistinguishability E5", weight: 3, run: func(tr *tracer, parent, i int) (opOut, error) {
			checked, err := lowerbound.VerifyIndistinguishability(wakeup.SetRegister(), pins.e5N, machine.ZeroTosses)
			if err != nil {
				return opOut{}, err
			}
			if checked != pins.e5N {
				return opOut{}, fmt.Errorf("E5 n=%d: checked %d subsets, want %d", pins.e5N, checked, pins.e5N)
			}
			return opOut{}, nil
		}},
	}
	return closedRun{
		kinds: kinds,
		setup: func() error { return warmUp(kinds) },
		layers: func(ph closedPhase, tr *tracer, m map[string]float64) error {
			return adversaryProbes(tr, pins, m)
		},
	}
}

// tossSeed is the E2 toss seed of op i: the program under test sees only
// this derived number.
func tossSeed(seed int64, i int) int64 { return sweep.Derive(sweep.Derive(seed, 2), i) }

// warmUp runs one checked op of every kind, so lazy initialization and
// heap growth happen before the timed phase.
func warmUp(kinds []opKind) error {
	for k, kind := range kinds {
		if _, err := kind.run(nil, 0, -1-k); err != nil {
			return fmt.Errorf("warm-up %s: %w", kind.name, err)
		}
	}
	return nil
}

// adversaryProbes measures the layers under the adversary's public calls
// by making, with spans, the core calls lowerbound makes: the E1 run and
// its checks, the E5 sub-runs and indistinguishability checks, and
// replays of the E1 run's recorded op stream (shmem) and move plans
// (moveplan). They run after the timed window.
func adversaryProbes(tr *tracer, pins paperRefs, m map[string]float64) error {
	const reps = 3
	var ms runtime.MemStats
	var ns, allocs, bytes []float64
	var run *core.AllRun
	for r := 0; r < reps; r++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		a0, b0 := ms.Mallocs, ms.TotalAlloc
		t0 := time.Now()
		var err error
		tr.do(0, "core.RunAll E1", func() {
			run, err = core.RunAll(wakeup.SetRegister(), pins.e1N, machine.ZeroTosses, core.Config{NoHistory: true})
		})
		d := time.Since(t0)
		runtime.ReadMemStats(&ms)
		if err != nil {
			return err
		}
		steps := 0
		for _, s := range run.Steps {
			steps += s
		}
		ns = append(ns, float64(d.Nanoseconds())/float64(steps))
		allocs = append(allocs, float64(ms.Mallocs-a0)/float64(steps))
		bytes = append(bytes, float64(ms.TotalAlloc-b0)/float64(steps))
		m["core.steps"] = float64(steps)
		tr.do(0, "core.checks E1", func() {
			err = core.CheckWakeupRun(run)
			if err == nil {
				err = core.CheckLemma51(run)
			}
			if err == nil {
				err = core.VerifyTheorem61(run)
			}
		})
		if err != nil {
			return fmt.Errorf("E1 probe: %w", err)
		}
	}
	m["core.ns_per_step"] = median(ns)
	m["core.allocs_per_step"] = median(allocs)
	m["core.bytes_per_step"] = median(bytes)
	m["core.runall_ms"] = tr.medianMS("core.RunAll E1")
	m["core.check_ms"] = tr.medianMS("core.checks E1")
	m["core.rounds"] = float64(len(run.Rounds))
	upMax := 0
	for pid := 0; pid < run.N; pid++ {
		upMax = max(upMax, run.FinalUPProc(pid).Len())
	}
	m["core.up_max"] = float64(upMax)

	// E5's body: one history-mode run, then a sub-run and a Lemma 5.2
	// check per process.
	hist, err := core.RunAll(wakeup.SetRegister(), pins.e5N, machine.ZeroTosses, core.Config{})
	if err != nil {
		return err
	}
	for pid := 0; pid < pins.e5N; pid++ {
		var sub *core.SubRun
		tr.do(0, "core.RunSub E5", func() {
			sub, err = core.RunSub(hist, hist.UPProcAt(pid, hist.Steps[pid]).Clone())
		})
		if err != nil {
			return err
		}
		tr.do(0, "core.CheckIndist E5", func() { err = core.CheckIndist(hist, sub) })
		if err != nil {
			return fmt.Errorf("E5 probe p%d: %w", pid, err)
		}
	}
	m["core.subrun_ms"] = tr.medianMS("core.RunSub E5")
	m["core.indist_ms"] = tr.medianMS("core.CheckIndist E5")

	// The E1 run again with history on, so its op stream and move plans
	// are kept, then replayed through a fresh register file and the
	// secretive schedule of moveplan.
	e1, err := core.RunAll(wakeup.SetRegister(), pins.e1N, machine.ZeroTosses, core.Config{})
	if err != nil {
		return err
	}
	var replay []float64
	for r := 0; r < reps; r++ {
		var nOps int
		tr.do(0, "shmem.Apply replay E1", func() {
			t0 := time.Now()
			mem := shmem.New()
			for _, round := range e1.Rounds {
				for _, st := range round.Steps {
					resp := mem.Apply(st.Pid, st.Op)
					if resp.OK != st.Resp.OK || !shmem.ValuesEqual(resp.Val, st.Resp.Val) {
						err = fmt.Errorf("shmem replay: p%d %v answered %v, recorded %v", st.Pid, st.Op, resp, st.Resp)
					}
					nOps++
				}
			}
			replay = append(replay, float64(time.Since(t0).Nanoseconds())/float64(nOps))
		})
		if err != nil {
			return err
		}
		tr.do(0, "moveplan.Secretive E1", func() {
			for _, round := range e1.Rounds {
				moveplan.Secretive(round.MovePlan)
			}
		})
	}
	m["shmem.replay_ns_per_op"] = median(replay)
	m["moveplan.secretive_ms"] = tr.medianMS("moveplan.Secretive E1")
	return nil
}
