package jayanti98_test

// One benchmark per experiment of DESIGN.md §3 (E1–E12), plus micro
// benchmarks of the substrates. The forced-steps metrics are reported via
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates the numbers
// recorded in EXPERIMENTS.md alongside wall-clock costs.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"jayanti98/internal/algos"
	"jayanti98/internal/algos/bwllsc"
	"jayanti98/internal/campaign"
	"jayanti98/internal/core"
	"jayanti98/internal/explore"
	"jayanti98/internal/linz"
	"jayanti98/internal/llsc"
	"jayanti98/internal/lowerbound"
	"jayanti98/internal/machine"
	"jayanti98/internal/moveplan"
	"jayanti98/internal/objtype"
	"jayanti98/internal/sched"
	"jayanti98/internal/shmem"
	"jayanti98/internal/sweep"
	"jayanti98/internal/universal"
	"jayanti98/internal/vmachine"
	"jayanti98/internal/wakeup"
)

var benchNs = []int{4, 16, 64, 256}

// BenchmarkE1WakeupForcedSteps measures the adversary-forced cost of the
// correct deterministic wakeup algorithms (Theorem 6.1).
func BenchmarkE1WakeupForcedSteps(b *testing.B) {
	for _, n := range benchNs {
		b.Run(fmt.Sprintf("set-register/n=%d", n), func(b *testing.B) {
			var last lowerbound.WakeupResult
			for i := 0; i < b.N; i++ {
				res, err := lowerbound.MeasureWakeup(wakeup.SetRegister(), n, machine.ZeroTosses)
				if err != nil {
					b.Fatal(err)
				}
				if !res.OK() {
					b.Fatalf("checks failed: %+v", res)
				}
				last = res
			}
			b.ReportMetric(float64(last.WinnerSteps), "winner-steps")
			b.ReportMetric(float64(last.Bound), "log4n-bound")
			// Adversary-path throughput: every iteration replays the same
			// deterministic run, so TotalSteps*N over the wall clock is the
			// shared-access rate the register file sustains.
			b.ReportMetric(float64(last.TotalSteps)*float64(b.N)/b.Elapsed().Seconds(), "steps/sec")
		})
	}
}

// BenchmarkE2RandomizedWakeup estimates the expected winner cost of the
// randomized double-register algorithm (Lemma 3.1 / Theorem 6.1) through
// the parallel sweep engine, at the same worker count cmd/lbreport uses.
// Every iteration samples the same fixed seed, so the reported
// E-winner-steps — which bench-compare gates exactly — does not depend on
// how many iterations the benchmark ran.
func BenchmarkE2RandomizedWakeup(b *testing.B) {
	const seed = 1
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				res, err := lowerbound.ExpectedComplexityCtx(context.Background(),
					func(int) machine.Algorithm { return wakeup.DoubleRegister() },
					n, 10, seed, runtime.GOMAXPROCS(0))
				if err != nil {
					b.Fatal(err)
				}
				mean = res.Winner.Mean
			}
			b.ReportMetric(mean, "E-winner-steps")
		})
	}
}

// BenchmarkSweepEngine measures the worker-pool sweep engine on the E1
// set-register grid at increasing parallelism — the wall-clock win of
// `lbreport -parallel N` over the serial run, isolated from rendering.
func BenchmarkSweepEngine(b *testing.B) {
	ns := []int{2, 4, 8, 16, 32, 64}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := lowerbound.SweepWakeupCtx(context.Background(),
					func(n int) machine.Algorithm { return wakeup.SetRegister() },
					ns, machine.ZeroTosses, workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(results) != len(ns) {
					b.Fatalf("got %d results", len(results))
				}
			}
		})
	}
}

// BenchmarkE5IndistinguishabilityParallel measures the fanned-out
// per-process (S,A)-replays — the report's quadratic hot spot.
func BenchmarkE5IndistinguishabilityParallel(b *testing.B) {
	const n = 16
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				checked, err := lowerbound.VerifyIndistinguishabilityCtx(context.Background(),
					wakeup.SetRegister(), n, machine.ZeroTosses, workers)
				if err != nil {
					b.Fatal(err)
				}
				if checked != n {
					b.Fatalf("checked %d", checked)
				}
			}
		})
	}
}

// BenchmarkSeedDerivation measures the per-item seed hash — it must stay
// negligible next to a single simulated run.
func BenchmarkSeedDerivation(b *testing.B) {
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += sweep.Seed("E2", "double-register", 64, i)
	}
	_ = sink
}

// BenchmarkSeededStream measures the seeded-stream layer under every
// random walk: seed one stream and draw 64 Intn values, about what one
// explore walk or campaign input reads. math-rand fills its whole table
// on Seed; sweep (sweep.NewRand, the same stream) seeds lazily.
func BenchmarkSeededStream(b *testing.B) {
	for _, tc := range []struct {
		name string
		new  func(int64) *rand.Rand
	}{
		{"math-rand", func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }},
		{"sweep", sweep.NewRand},
	} {
		b.Run(tc.name, func(b *testing.B) {
			sink := 0
			for i := 0; i < b.N; i++ {
				rng := tc.new(sweep.Derive(7, i))
				for j := 0; j < 64; j++ {
					sink += rng.Intn(3)
				}
			}
			if sink == 0 {
				b.Fatal("no draws")
			}
		})
	}
}

// BenchmarkE3TypeLowerBounds runs every Theorem 6.2 reduction over the
// group-update construction at n = 16.
func BenchmarkE3TypeLowerBounds(b *testing.B) {
	const n = 16
	for _, spec := range wakeup.Reductions() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			var last lowerbound.WakeupResult
			for i := 0; i < b.N; i++ {
				alg, _, err := lowerbound.BuildReduction(spec, "group-update", n)
				if err != nil {
					b.Fatal(err)
				}
				res, err := lowerbound.MeasureWakeup(alg, n, machine.ZeroTosses)
				if err != nil {
					b.Fatal(err)
				}
				if !res.OK() {
					b.Fatalf("checks failed: %+v", res)
				}
				last = res
			}
			b.ReportMetric(float64(last.WinnerSteps), "winner-steps")
		})
	}
}

// BenchmarkE4UPTracking isolates the UP-set update rules (Lemma 5.1
// bookkeeping) by running the adversary with them on.
func BenchmarkE4UPTracking(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run, err := core.RunAll(wakeup.SetRegister(), n, machine.ZeroTosses, core.Config{NoHistory: true})
				if err != nil {
					b.Fatal(err)
				}
				if err := core.CheckLemma51(run); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5Indistinguishability measures the (S,A)-run replay plus the
// Lemma 5.2 check for every process of a run.
func BenchmarkE5Indistinguishability(b *testing.B) {
	for _, n := range []int{8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := lowerbound.VerifyIndistinguishability(wakeup.SetRegister(), n, machine.ZeroTosses); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6CatchCheater measures the full Theorem 6.1 catch pipeline.
func BenchmarkE6CatchCheater(b *testing.B) {
	const n = 64
	for i := 0; i < b.N; i++ {
		run, err := core.RunAll(wakeup.Cheater(), n, machine.ZeroTosses, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		catch, err := core.CatchFastWakeup(run)
		if err != nil {
			b.Fatal(err)
		}
		if catch == nil {
			b.Fatal("cheater not caught")
		}
	}
}

// BenchmarkE7GroupUpdate measures the adversary-forced per-op cost of the
// tight O(log n) construction.
func BenchmarkE7GroupUpdate(b *testing.B) {
	benchConstruction(b, func(n int) universal.Construction {
		return universal.NewGroupUpdate(objtype.NewFetchIncrement(64), n, 0)
	})
}

// BenchmarkE8Herlihy measures the Θ(n) baseline construction.
func BenchmarkE8Herlihy(b *testing.B) {
	benchConstruction(b, func(n int) universal.Construction {
		return universal.NewHerlihy(objtype.NewFetchIncrement(64), n, 0)
	})
}

func benchConstruction(b *testing.B, mk func(n int) universal.Construction) {
	b.Helper()
	for _, n := range benchNs {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var last lowerbound.ConstructionResult
			for i := 0; i < b.N; i++ {
				res, err := lowerbound.MeasureConstruction(mk, lowerbound.FetchIncOp, n)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.MaxSteps), "forced-steps/op")
			b.ReportMetric(float64(last.LowerBound), "log4n-bound")
		})
	}
}

// BenchmarkE9MovePlans measures secretive-schedule construction on the
// Section 4 chain workload (n=…), and what experiment E9 runs per size:
// lowerbound.MoveScheduleComparison, with its Lemma 4.1 and 4.2 checks
// (comparison/n=…).
func BenchmarkE9MovePlans(b *testing.B) {
	for _, n := range []int{64, 1024, 4096} {
		plan := make(moveplan.Plan, n)
		for i := 0; i < n; i++ {
			plan[i] = moveplan.Move{Src: i, Dst: i + 1}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var sigma moveplan.Schedule
			for i := 0; i < b.N; i++ {
				sigma = moveplan.Secretive(plan)
			}
			if got := moveplan.MaxMovers(plan, sigma); got > 2 {
				b.Fatalf("max movers = %d", got)
			}
		})
	}
	for _, n := range []int{512, 4096} {
		b.Run(fmt.Sprintf("comparison/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, r := range lowerbound.MoveScheduleComparison(n, 1) {
					if !r.SecretiveLegal || !r.Lemma42Verified {
						b.Fatalf("%s n=%d: %+v", r.Workload, n, r)
					}
				}
			}
		})
	}
}

// BenchmarkE10RMWUnitTime measures the Section 7 unit-time universal
// object.
func BenchmarkE10RMWUnitTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := lowerbound.RMWUnitTime(objtype.NewFetchIncrement(64), 256, lowerbound.FetchIncOp)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Correct {
			b.Fatal("incorrect responses")
		}
	}
	b.ReportMetric(1, "steps/op")
}

// --- substrate micro-benchmarks ---

// BenchmarkShmemLLSC measures the simulated memory's LL+SC pair.
func BenchmarkShmemLLSC(b *testing.B) {
	m := shmem.New()
	for i := 0; i < b.N; i++ {
		m.Apply(0, shmem.Op{Kind: shmem.OpLL, Reg: 0})
		m.Apply(0, shmem.Op{Kind: shmem.OpSC, Reg: 0, Arg: i})
	}
}

// BenchmarkLLSCConcurrent measures the concurrent memory under parallel
// LL/SC contention.
func BenchmarkLLSCConcurrent(b *testing.B) {
	const n = 8
	m := llsc.New(n)
	var pidCounter int32
	var mu sync.Mutex
	nextPid := func() int {
		mu.Lock()
		defer mu.Unlock()
		pid := int(pidCounter) % n
		pidCounter++
		return pid
	}
	b.RunParallel(func(pb *testing.PB) {
		h := m.Handle(nextPid())
		for pb.Next() {
			h.LL(0)
			h.SC(0, 1)
		}
	})
}

// BenchmarkGroupUpdateConcurrent measures one fetch&increment through the
// group-update construction on the concurrent backend.
func BenchmarkGroupUpdateConcurrent(b *testing.B) {
	const n = 8
	obj := universal.NewGroupUpdate(objtype.NewFetchIncrement(64), n, 0)
	m := llsc.New(n)
	h := m.Handle(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj.Invoke(h, objtype.Op{Name: objtype.OpFetchIncrement})
	}
}

// BenchmarkMachineStep measures the coroutine handshake per shared step.
func BenchmarkMachineStep(b *testing.B) {
	alg := machine.New("spin", func(e *machine.Env) shmem.Value {
		for {
			e.Read(0)
		}
	})
	m := machine.Start(alg, 0, 1)
	defer m.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Peek()
		m.DeliverOpResponse(shmem.Response{OK: false, Val: nil})
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/sec")
}

// BenchmarkVMStep measures the bytecode VM's per-shared-step cost on the
// same spin workload as BenchmarkMachineStep. The goroutine engine pays
// two channel handoffs per step, one each way, and the goroutine switches
// they cause; the VM resumes in-line on the caller's stack, so the gap
// between the two numbers is what a body gains from a compiled twin.
func BenchmarkVMStep(b *testing.B) {
	chunk := vmachine.MustCompile(&vmachine.Program{
		Name: "spin",
		Body: []vmachine.Stmt{
			vmachine.LoopS{Body: []vmachine.Stmt{
				vmachine.DoS{E: vmachine.ReadE{Reg: vmachine.ConstE{V: vmachine.Int(0)}}},
			}},
		},
	})
	alg := machine.NewCompiled("spin", func(e *machine.Env) shmem.Value {
		for {
			e.Read(0)
		}
	}, chunk)
	m := machine.Start(alg, 0, 1)
	defer m.Close()
	// Only a VM machine restarts in place.
	if !m.Reset() {
		b.Fatal("machine is not on the VM engine")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Peek()
		m.DeliverOpResponse(shmem.Response{OK: false, Val: nil})
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/sec")
}

// BenchmarkE11CountingNetwork measures the counting-network wakeup (the
// semantics-exploiting, bounded-register alternative).
func BenchmarkE11CountingNetwork(b *testing.B) {
	for _, n := range benchNs {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var last lowerbound.WakeupResult
			for i := 0; i < b.N; i++ {
				res, err := lowerbound.MeasureWakeup(wakeup.CountingNetwork(n), n, machine.ZeroTosses)
				if err != nil {
					b.Fatal(err)
				}
				if !res.OK() {
					b.Fatalf("checks failed: %+v", res)
				}
				last = res
			}
			b.ReportMetric(float64(last.WinnerSteps), "winner-steps")
			b.ReportMetric(float64(last.Bound), "log4n-bound")
		})
	}
}

// BenchmarkE12RegisterWidth measures the register-width profile run.
func BenchmarkE12RegisterWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := lowerbound.RegisterWidthProfile(32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinearizabilityCheck measures the Wing-Gong checker on a
// concurrent counter history.
func BenchmarkLinearizabilityCheck(b *testing.B) {
	const n, k = 4, 3
	typ := objtype.NewFetchIncrement(16)
	obj := universal.NewGroupUpdate(typ, n, 0)
	m := llsc.New(n)
	h := linz.NewHistory(n)
	var clock atomic.Int64 // logical time of invocations and responses
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(n)
	for pid := 0; pid < n; pid++ {
		go func(pid int) {
			defer wg.Done()
			port := m.Handle(pid)
			for i := 0; i < k; i++ {
				op := objtype.Op{Name: objtype.OpFetchIncrement}
				inv := clock.Add(1)
				resp := obj.Invoke(port, op)
				ret := clock.Add(1)
				mu.Lock()
				h.Add(pid, op, resp, inv, ret)
				mu.Unlock()
			}
		}(pid)
	}
	wg.Wait()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := linz.Check(typ, h)
		if err != nil || !res.Linearizable {
			b.Fatalf("check failed: %v %v", err, res)
		}
	}
}

// BenchmarkPsetChurn measures the Pset lifecycle the bitset register file
// is built around: n processes link a register, then one successful SC
// clears all n links at once. Run with -benchmem: the warm loop must be
// allocation-free (the clear zeroes the bitset words in place; the old
// map representation allocated a fresh map per successful SC).
func BenchmarkPsetChurn(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := shmem.New()
			for pid := 0; pid < n; pid++ {
				m.Apply(pid, shmem.Op{Kind: shmem.OpLL, Reg: 0})
			}
			m.Apply(0, shmem.Op{Kind: shmem.OpSC, Reg: 0, Arg: -1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for pid := 0; pid < n; pid++ {
					m.Apply(pid, shmem.Op{Kind: shmem.OpLL, Reg: 0})
				}
				if r := m.Apply(0, shmem.Op{Kind: shmem.OpSC, Reg: 0, Arg: i}); !r.OK {
					b.Fatal("SC by a linked process must succeed")
				}
			}
		})
	}
}

// BenchmarkValuesEqual measures the register-value comparison across the
// scalar fast path and the reflect.DeepEqual fallback.
func BenchmarkValuesEqual(b *testing.B) {
	pairs := []struct {
		name string
		a, v shmem.Value
	}{
		{"int", 41, 41},
		{"int-mismatch", 41, 42},
		{"string", "wakeup", "wakeup"},
		{"nil", nil, nil},
		{"slice-fallback", []int{1, 2}, []int{1, 2}},
	}
	for _, p := range pairs {
		b.Run(p.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				shmem.ValuesEqual(p.a, p.v)
			}
		})
	}
}

// BenchmarkLLSCFingerprint measures the concurrent memory's canonical
// state rendering, which sits on the exploration memoization hot path.
func BenchmarkLLSCFingerprint(b *testing.B) {
	const n = 4
	m := llsc.New(n)
	for pid := 0; pid < n; pid++ {
		h := m.Handle(pid)
		for reg := 0; reg < 8; reg++ {
			h.LL(reg)
			if reg%2 == 0 {
				h.SC(reg, pid*100+reg)
			}
		}
	}
	var dst []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = m.AppendFingerprint(dst[:0])
	}
	if len(dst) == 0 {
		b.Fatal("empty fingerprint")
	}
}

// BenchmarkExhaustiveExplore measures the full DFS over the central
// construction's n=2 schedule space — the end-to-end exploration hot path
// (prefix re-execution, binary memo keys, visited-set lookups). The
// runs/sec metric is the paper-level throughput bench-compare gates on.
func BenchmarkExhaustiveExplore(b *testing.B) {
	var runs int
	for i := 0; i < b.N; i++ {
		rep, err := explore.Exhaustive(explore.Config{Alg: "central", Object: "fetch-increment", N: 2, OpsPerProc: 1}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if rep.States != 20 || rep.Runs != 27 {
			b.Fatalf("unexpected counts: states=%d runs=%d", rep.States, rep.Runs)
		}
		runs += rep.Runs
	}
	b.ReportMetric(float64(runs)/b.Elapsed().Seconds(), "runs/sec")
}

// BenchmarkExhaustiveExploreOps measures exhaustive searches of the
// explore workload (perfbench): group-update at n=2, central at n=3 (the
// op the workload weights most), and tas-tournament at n=2 on both LL/SC
// backends, the slowest of its exhaustive ops before runners were forked.
// Next to runs/sec it reports the pinned States and Runs, which
// bench-compare gates exactly.
func BenchmarkExhaustiveExploreOps(b *testing.B) {
	cases := []struct {
		alg, object, llsc string
		n                 int
		states, run       int
	}{
		{alg: "group-update", object: "fetch-increment", n: 2, states: 384, run: 607},
		{alg: "central", object: "fetch-increment", n: 3, states: 507, run: 700},
		{alg: "tas-tournament", object: "tas", llsc: "native", n: 2, states: 1594, run: 2741},
		{alg: "tas-tournament", object: "tas", llsc: "bw", n: 2, states: 1594, run: 2741},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/n=%d", tc.alg, tc.n)
		if tc.llsc != "" {
			name += "/" + tc.llsc
		}
		b.Run(name, func(b *testing.B) {
			var runs int
			var rep *explore.Report
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = explore.Exhaustive(explore.Config{Alg: tc.alg, Object: tc.object, N: tc.n, OpsPerProc: 1, LLSC: tc.llsc}, 1)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Failure != nil || rep.States != tc.states || rep.Runs != tc.run {
					b.Fatalf("unexpected report: states=%d runs=%d failure=%v", rep.States, rep.Runs, rep.Failure)
				}
				runs += rep.Runs
			}
			b.ReportMetric(float64(runs)/b.Elapsed().Seconds(), "runs/sec")
			b.ReportMetric(float64(rep.States), "states")
			b.ReportMetric(float64(rep.Runs), "runs")
		})
	}
}

// BenchmarkExploreFuzz measures random-schedule search: perfbench's two
// explore fuzz batches (group-update at n=4 with two ops per process, and
// one tas-tournament walk at n=8) and the service's cold job (group-update
// at n=3 over 28 samples), each at a fixed seed on one worker. A walk's
// cost is mostly the online checker's transitions and the machines' steps.
// steps/op is the campaign's TotalSteps, which bench-compare gates exactly.
func BenchmarkExploreFuzz(b *testing.B) {
	cases := []struct {
		name    string
		cfg     explore.Config
		samples int
	}{
		{name: "group-update/n=4/ops=2", cfg: explore.Config{Alg: "group-update", Object: "fetch-increment", N: 4, OpsPerProc: 2}, samples: 12},
		{name: "tas-tournament/n=8", cfg: explore.Config{Alg: "tas-tournament", Object: "tas", N: 8, OpsPerProc: 1}, samples: 1},
		{name: "group-update/n=3/service", cfg: explore.Config{Alg: "group-update", Object: "fetch-increment", N: 3, OpsPerProc: 1}, samples: 28},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var rep *explore.FuzzReport
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = explore.Fuzz(tc.cfg, explore.FuzzOptions{Samples: tc.samples, Seed: 7, Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Failures) != 0 {
					b.Fatalf("fuzz found %d failures", len(rep.Failures))
				}
			}
			b.ReportMetric(float64(rep.TotalSteps), "steps/op")
		})
	}
}

// BenchmarkCampaignExec measures campaign-round execution throughput —
// the coverage-guided hot path (guided runs with state-digest tracing,
// corpus mutation, slot-order folds) that a long-lived campaign spends
// its life in. One iteration executes and folds a full 32-input round
// over the group-update construction. The execs/sec metric is the
// paper-level throughput bench-compare gates on.
func BenchmarkCampaignExec(b *testing.B) {
	spec := campaign.Spec{
		Alg: "group-update", Object: "fetch-increment", N: 2, BatchSize: 32, MaxCorpus: 16,
	}
	spec.Normalize()
	st := campaign.NewState(spec)
	var execs int64
	for i := 0; i < b.N; i++ {
		rr, err := campaign.ExecuteRound(context.Background(), st.NextRound(), 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.ApplyRound(rr); err != nil {
			b.Fatal(err)
		}
		execs += int64(spec.BatchSize)
	}
	if st.Corpus.Len() == 0 {
		b.Fatal("campaign rounds kept no corpus entries")
	}
	b.ReportMetric(float64(execs)/b.Elapsed().Seconds(), "execs/sec")
}

// BenchmarkTASStep measures whole-execution throughput of the zoo's
// tournament test&set: one iteration is a complete 8-process run (schedule:
// round-robin, hashed tosses from a seed pre-checked to terminate), and the
// metric is shared-memory steps per second — the raw-mode exploration and
// E13/E14 hot path.
func BenchmarkTASStep(b *testing.B) {
	const n = 8
	alg, err := algos.New("tas-tournament", n)
	if err != nil {
		b.Fatal(err)
	}
	// Find the first completing seed outside the timer (randomized
	// protocols may livelock under an unlucky schedule/toss pairing).
	seed := int64(-1)
	for s := int64(0); s < 50; s++ {
		if _, err := sched.Execute(alg, n, llsc.New(n), &sched.RoundRobin{}, lowerbound.HashTosses(s), 256*n); err == nil {
			seed = s
			break
		}
	}
	if seed < 0 {
		b.Fatal("no completing seed in 50 attempts")
	}
	ta := lowerbound.HashTosses(seed)
	b.ResetTimer()
	var steps int
	for i := 0; i < b.N; i++ {
		res, err := sched.Execute(alg, n, llsc.New(n), &sched.RoundRobin{}, ta, 256*n)
		if err != nil {
			b.Fatal(err)
		}
		steps += res.TotalSteps
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/sec")
}

// BenchmarkBWLLSC measures the per-operation overhead of the Blelloch–Wei
// pointer-based LL/SC backend against the native pset-based memory on the
// same LL;SC loop — the cost E15 deliberately leaves out of its
// deterministic tables.
func BenchmarkBWLLSC(b *testing.B) {
	b.Run("native", func(b *testing.B) {
		m := llsc.New(1)
		for i := 0; i < b.N; i++ {
			m.Apply(0, shmem.Op{Kind: shmem.OpLL, Reg: 0})
			m.Apply(0, shmem.Op{Kind: shmem.OpSC, Reg: 0, Arg: i})
		}
	})
	b.Run("bw", func(b *testing.B) {
		m := bwllsc.New(1)
		for i := 0; i < b.N; i++ {
			m.Apply(0, shmem.Op{Kind: shmem.OpLL, Reg: 0})
			m.Apply(0, shmem.Op{Kind: shmem.OpSC, Reg: 0, Arg: i})
		}
	})
}
