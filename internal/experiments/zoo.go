// Experiments E13–E15: the related-work algorithm zoo (DESIGN.md §15).
// E13 measures the zoo's randomized test&set protocols against the
// ⌈log₄ n⌉ bound and runs the n = 2 wakeup-via-TAS reduction; E14 estimates
// expected step counts over seeded random schedules; E15 differentially
// checks the Blelloch–Wei LL/SC backend against the native one on whole
// executions.
package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"jayanti98/internal/algos"
	"jayanti98/internal/algos/bwllsc"
	"jayanti98/internal/core"
	"jayanti98/internal/llsc"
	"jayanti98/internal/lowerbound"
	"jayanti98/internal/machine"
	"jayanti98/internal/report"
	"jayanti98/internal/sched"
	"jayanti98/internal/shmem"
	"jayanti98/internal/stats"
	"jayanti98/internal/sweep"
	"jayanti98/internal/wakeup"
)

// tasNs is the process-count grid for the zoo experiments. The acceptance
// bar for E13 is n ≤ 64; Quick stops at 8.
func tasNs(opts Options) []int {
	if opts.Quick {
		return []int{2, 4, 8}
	}
	return []int{2, 4, 8, 16, 32, 64}
}

// zooNames lists the registry minus the mutation-build-only broken variant:
// the experiments must render identically with and without -tags mutation.
func zooNames() []string {
	var out []string
	for _, name := range algos.Names() {
		if name != algos.BrokenTV {
			out = append(out, name)
		}
	}
	return out
}

// tasBudget is the step budget for whole-execution zoo runs. It is far above
// any complete run's cost (the tournament needs O(log n) expected steps per
// process); randomized protocols can still livelock under an unlucky
// schedule/toss pairing, so callers retry with the next derived seed.
func tasBudget(n int) int { return 256 * n }

// runTAS executes one n-process run of the named zoo algorithm against mem,
// with hashed tosses derived from seed. A budget exhaustion comes back as
// sched.ErrBudgetExhausted with a partial result.
func runTAS(name string, n int, mem sched.Memory, s sched.Scheduler, seed int64) (*sched.Result, error) {
	alg, err := algos.New(name, n)
	if err != nil {
		return nil, err
	}
	return sched.Execute(alg, n, mem, s, lowerbound.HashTosses(seed), tasBudget(n))
}

// tasWinner returns the pid whose test&set returned 0 and whether exactly
// one process did so (the linearizability invariant for a complete run).
func tasWinner(res *sched.Result) (int, bool) {
	winner, count := -1, 0
	for pid, v := range res.Returns {
		if shmem.ValuesEqual(v, 0) {
			winner, count = pid, count+1
		}
	}
	return winner, count == 1
}

// firstCompleteTAS retries deterministically derived seeds until the run
// completes within budget, returning the result and the number of attempts.
// The retry sequence depends only on (experiment, name, n), so the report
// stays deterministic.
func firstCompleteTAS(experiment, name string, n int, s func() sched.Scheduler) (*sched.Result, int, error) {
	const maxAttempts = 50
	for attempt := 0; attempt < maxAttempts; attempt++ {
		res, err := runTAS(name, n, llsc.New(n), s(), sweep.Seed(experiment, name, n, attempt))
		if errors.Is(err, sched.ErrBudgetExhausted) {
			continue
		}
		if err != nil {
			return nil, attempt + 1, err
		}
		return res, attempt + 1, nil
	}
	return nil, maxAttempts, fmt.Errorf("%s/%s n=%d: no complete run in %d attempts", experiment, name, n, maxAttempts)
}

func e13(ctx context.Context, d *report.Doc, opts Options) error {
	report.Section(d, 2, "E13 — algorithm zoo: randomized test&set vs the ⌈log₄ n⌉ bound")
	fmt.Fprintln(d, "Test&set is *not* perturbable, so Theorem 6.1 does not bound it directly;")
	fmt.Fprintln(d, "the wakeup reduction (second table) is sound only at n = 2, where the")
	fmt.Fprintln(d, "loser's response proves the winner stepped. The first table measures the")
	fmt.Fprintln(d, "winner's shared accesses under a round-robin schedule with hashed tosses")
	fmt.Fprintln(d, "(first completing derived seed), next to the bound the reduction cannot")
	fmt.Fprintln(d, "extend past two processes.")
	fmt.Fprintln(d)

	type item struct {
		name string
		n    int
	}
	var items []item
	for _, name := range zooNames() {
		spec, _ := algos.For(name)
		for _, n := range tasNs(opts) {
			if spec.MaxN > 0 && n > spec.MaxN {
				continue
			}
			items = append(items, item{name, n})
		}
	}
	type row struct {
		item
		winner    int
		oneWinner bool
		steps     int
		max       int
		total     int
		attempts  int
	}
	rows, err := sweep.MapCtx(ctx, opts.Parallel, len(items), func(i int) (row, error) {
		it := items[i]
		res, attempts, err := firstCompleteTAS("E13", it.name, it.n, func() sched.Scheduler { return &sched.RoundRobin{} })
		if err != nil {
			return row{}, err
		}
		winner, one := tasWinner(res)
		return row{it, winner, one, res.Steps[winner], res.MaxSteps, res.TotalSteps, attempts}, nil
	})
	if err != nil {
		return err
	}
	tbl := report.NewTable("algorithm", "n", "winner", "winner steps", "t(R)", "total steps", "⌈log₄ n⌉", "one winner", "attempts")
	for _, r := range rows {
		tbl.AddRow(r.name, r.n, fmt.Sprintf("p%d", r.winner), r.steps, r.max, r.total,
			core.Log4Ceil(r.n), report.Bool(r.oneWinner), r.attempts)
	}
	if err := d.Table(tbl); err != nil {
		return err
	}
	fmt.Fprintln(d)

	fmt.Fprintln(d, "Wakeup via one test&set per process (group-update-backed object), n = 2 —")
	fmt.Fprintln(d, "the only n where the reduction's conditions hold:")
	fmt.Fprintln(d)
	results, err := lowerbound.SweepReductionCtx(ctx, wakeup.TASReduction(), "group-update", []int{2}, machine.ZeroTosses, opts.Parallel)
	if err != nil {
		return err
	}
	red := report.NewTable("type", "n", "k (ops/proc)", "winner steps", "per-op bound", "t(R)", "spec", "thm 6.1")
	for _, r := range results {
		red.AddRow(r.Type, r.N, r.OpsPerProcess, r.WinnerSteps, r.PerOpBound, r.MaxSteps,
			report.Check(r.SpecErr), report.Check(r.Theorem61Err))
	}
	return d.Table(red)
}

func e14(ctx context.Context, d *report.Doc, opts Options) error {
	n := samples(opts)
	report.Section(d, 2, "E14 — randomized TAS: step counts over %d seeded random schedules", n)
	fmt.Fprintln(d, "Each sample runs under an independently seeded uniform scheduler with")
	fmt.Fprintln(d, "hashed tosses. Runs that exhaust the step budget (a livelocked schedule/")
	fmt.Fprintln(d, "toss pairing — the protocols are randomized, not wait-free) are counted,")
	fmt.Fprintln(d, "not summarized; every complete run must have exactly one winner.")
	fmt.Fprintln(d)

	type item struct {
		name string
		n    int
	}
	var items []item
	for _, name := range zooNames() {
		spec, _ := algos.For(name)
		for _, nn := range tasNs(opts) {
			if spec.MaxN > 0 && nn > spec.MaxN {
				continue
			}
			items = append(items, item{name, nn})
		}
	}
	type row struct {
		item
		winner     stats.Summary
		max        stats.Summary
		unfinished int
		oneWinner  bool
	}
	rows, err := sweep.MapCtx(ctx, opts.Parallel, len(items), func(i int) (row, error) {
		it := items[i]
		var winnerSteps, maxSteps []float64
		unfinished, oneWinner := 0, true
		for j := 0; j < n; j++ {
			seed := sweep.Seed("E14", it.name, it.n, j)
			res, err := runTAS(it.name, it.n, llsc.New(it.n), sched.NewRandom(seed), seed+1)
			if errors.Is(err, sched.ErrBudgetExhausted) {
				unfinished++
				continue
			}
			if err != nil {
				return row{}, err
			}
			winner, one := tasWinner(res)
			if !one {
				oneWinner = false
			}
			winnerSteps = append(winnerSteps, float64(res.Steps[winner]))
			maxSteps = append(maxSteps, float64(res.MaxSteps))
		}
		return row{it, stats.Summarize(winnerSteps), stats.Summarize(maxSteps), unfinished, oneWinner}, nil
	})
	if err != nil {
		return err
	}
	tbl := report.NewTable("algorithm", "n", "complete", "E[winner steps]", "max", "E[t(R)]", "p95 t(R)", "unfinished", "one winner")
	for _, r := range rows {
		tbl.AddRow(r.name, r.n, r.winner.N, fmt.Sprintf("%.2f", r.winner.Mean), int(r.winner.Max),
			fmt.Sprintf("%.2f", r.max.Mean), fmt.Sprintf("%.1f", r.max.P95), r.unfinished,
			report.Bool(r.oneWinner))
	}
	return d.Table(tbl)
}

// e15Items lists the whole executions the backend differential covers: the
// deterministic E1 wakeup algorithms and the zoo's randomized TAS protocols
// (first completing derived seed, like E13 — each attempt on a fresh
// memory, so an exhausted run never leaks state into the next). run returns
// the memory it completed on so the caller can compare fingerprints.
func e15Items(opts Options) []struct {
	label string
	n     int
	run   func(newMem func(n int) shmem.Backend) (*sched.Result, shmem.Backend, error)
} {
	type entry = struct {
		label string
		n     int
		run   func(newMem func(n int) shmem.Backend) (*sched.Result, shmem.Backend, error)
	}
	var items []entry
	for _, w := range []struct {
		name string
		mk   func() machine.Algorithm
	}{
		{"wakeup/set-register", wakeup.SetRegister},
		{"wakeup/move-courier", wakeup.MoveCourier},
	} {
		for _, n := range tasNs(opts) {
			w, n := w, n
			items = append(items, entry{w.name, n, func(newMem func(n int) shmem.Backend) (*sched.Result, shmem.Backend, error) {
				mem := newMem(n)
				res, err := sched.Execute(w.mk(), n, mem, &sched.RoundRobin{}, machine.ZeroTosses, tasBudget(n))
				return res, mem, err
			}})
		}
	}
	for _, name := range zooNames() {
		spec, _ := algos.For(name)
		for _, n := range tasNs(opts) {
			if spec.MaxN > 0 && n > spec.MaxN {
				continue
			}
			name, n := name, n
			items = append(items, entry{name, n, func(newMem func(n int) shmem.Backend) (*sched.Result, shmem.Backend, error) {
				const maxAttempts = 50
				for attempt := 0; attempt < maxAttempts; attempt++ {
					mem := newMem(n)
					res, err := runTAS(name, n, mem, &sched.RoundRobin{}, sweep.Seed("E15", name, n, attempt))
					if errors.Is(err, sched.ErrBudgetExhausted) {
						continue
					}
					return res, mem, err
				}
				return nil, nil, fmt.Errorf("E15/%s n=%d: no complete run in %d attempts", name, n, maxAttempts)
			}})
		}
	}
	return items
}

func e15(ctx context.Context, d *report.Doc, opts Options) error {
	report.Section(d, 2, "E15 — Blelloch–Wei LL/SC backend vs native (whole-execution differential)")
	fmt.Fprintln(d, "The same algorithm, schedule and tosses run once against the native")
	fmt.Fprintln(d, "pset-based memory (internal/llsc) and once against the pointer-based")
	fmt.Fprintln(d, "Blelloch–Wei backend (internal/algos/bwllsc); returns, per-process step")
	fmt.Fprintln(d, "counts and the final memory fingerprint must agree byte for byte.")
	fmt.Fprintln(d, "(Exhaustive all-schedules equivalence is TestExhaustiveBackendsEqual;")
	fmt.Fprintln(d, "per-op overhead is BenchmarkBWLLSC.)")
	fmt.Fprintln(d)

	items := e15Items(opts)
	type row struct {
		label                   string
		n, total                int
		returns, steps, fprints bool
		err                     error
	}
	rows, err := sweep.MapCtx(ctx, opts.Parallel, len(items), func(i int) (row, error) {
		it := items[i]
		resA, memA, err := it.run(func(n int) shmem.Backend { return llsc.New(n) })
		if err != nil {
			return row{label: it.label, n: it.n, err: err}, nil
		}
		resB, memB, err := it.run(func(n int) shmem.Backend { return bwllsc.New(n) })
		if err != nil {
			return row{label: it.label, n: it.n, err: err}, nil
		}
		r := row{label: it.label, n: it.n, total: resA.TotalSteps, returns: true, steps: resA.TotalSteps == resB.TotalSteps}
		for pid := 0; pid < it.n; pid++ {
			if !shmem.ValuesEqual(resA.Returns[pid], resB.Returns[pid]) {
				r.returns = false
			}
			if resA.Steps[pid] != resB.Steps[pid] {
				r.steps = false
			}
		}
		r.fprints = bytes.Equal(memA.AppendFingerprint(nil), memB.AppendFingerprint(nil))
		return r, nil
	})
	if err != nil {
		return err
	}
	tbl := report.NewTable("algorithm", "n", "total steps", "returns equal", "steps equal", "fingerprints equal")
	for _, r := range rows {
		if r.err != nil {
			tbl.AddRow(r.label, r.n, "-", report.Check(r.err), "-", "-")
			continue
		}
		tbl.AddRow(r.label, r.n, r.total, report.Bool(r.returns), report.Bool(r.steps), report.Bool(r.fprints))
	}
	return d.Table(tbl)
}
