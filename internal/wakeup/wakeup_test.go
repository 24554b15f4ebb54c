package wakeup

import (
	"slices"
	"sync"
	"testing"

	"jayanti98/internal/core"
	"jayanti98/internal/machine"
	"jayanti98/internal/objtype"
	"jayanti98/internal/sched"
	"jayanti98/internal/shmem"
)

// llscClient is a minimal lock-free linearizable object for testing the
// reductions: the whole object state lives in one unbounded register,
// updated with an LL/SC retry loop (each failure is caused by another
// process's success, so total work is bounded in finite workloads).
type llscClient struct {
	typ    objtype.Type
	reg, n int
}

func (c llscClient) Invoke(p machine.Port, op objtype.Op) objtype.Value {
	for {
		v := p.LL(c.reg)
		if v == nil {
			v = c.typ.Init(c.n)
		}
		next, resp := c.typ.Apply(v, op)
		if ok, _ := p.SC(c.reg, next); ok {
			return resp
		}
	}
}

func adversaryRun(t *testing.T, alg machine.Algorithm, n int) *core.AllRun {
	t.Helper()
	run, err := core.RunAll(alg, n, machine.ZeroTosses, core.Config{})
	if err != nil {
		t.Fatalf("%s n=%d: %v", alg.Name(), n, err)
	}
	return run
}

// checkCorrectWakeup runs alg under the adversary and asserts the full
// battery: spec conditions, Theorem 6.1's bound, Lemma 5.1, and
// indistinguishability for every process's knowledge set.
func checkCorrectWakeup(t *testing.T, alg machine.Algorithm, n int) *core.AllRun {
	t.Helper()
	run := adversaryRun(t, alg, n)
	if err := core.CheckWakeupRun(run); err != nil {
		t.Fatalf("%s n=%d: spec: %v", alg.Name(), n, err)
	}
	if err := core.VerifyTheorem61(run); err != nil {
		t.Fatalf("%s n=%d: theorem 6.1: %v", alg.Name(), n, err)
	}
	if err := core.CheckLemma51(run); err != nil {
		t.Fatalf("%s n=%d: lemma 5.1: %v", alg.Name(), n, err)
	}
	catch, err := core.CatchFastWakeup(run)
	if err != nil {
		t.Fatalf("%s n=%d: catch: %v", alg.Name(), n, err)
	}
	if catch != nil {
		t.Fatalf("%s n=%d: correct algorithm caught: %v", alg.Name(), n, catch)
	}
	return run
}

func TestEncodeDecodePids(t *testing.T) {
	var set shmem.PidBits
	for _, p := range []int{3, 0, 11} {
		set.Add(p)
	}
	enc := EncodeBits(set)
	if enc != "0,3,11" {
		t.Fatalf("EncodeBits = %q", enc)
	}
	if dec := DecodeBits(enc, nil).Sorted(); !slices.Equal(dec, []int{0, 3, 11}) {
		t.Fatalf("DecodeBits = %v", dec)
	}
	if DecodeBits(nil, nil).Count() != 0 || DecodeBits("", nil).Count() != 0 {
		t.Fatal("empty decode broken")
	}
}

func TestDecodePidsCorruptPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("corrupt register must panic")
		}
	}()
	DecodeBits("1,x", nil)
}

func TestSetRegisterUnderAdversary(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		checkCorrectWakeup(t, SetRegister(), n)
	}
}

func TestSetRegisterAdversaryForcesLinearSteps(t *testing.T) {
	// The adversary grants one successful SC per round, so the last
	// process needs ~n rounds: set-register pays Θ(n), far above log₄ n.
	run := adversaryRun(t, SetRegister(), 16)
	maxSteps, _ := run.MaxSteps()
	if maxSteps < 16 {
		t.Fatalf("adversary forced only %d steps on set-register with n=16", maxSteps)
	}
}

func TestSetRegisterExactlyOneWinner(t *testing.T) {
	run := adversaryRun(t, SetRegister(), 12)
	if w := core.WakeupWinners(run.Returns); len(w) != 1 {
		t.Fatalf("winners = %v, want exactly 1", w)
	}
}

func TestDoubleRegisterUnderAdversary(t *testing.T) {
	// Use a toss assignment that splits processes across both registers.
	ta := func(pid, j int) int64 { return int64(pid % 2) }
	for _, n := range []int{2, 4, 8, 16} {
		run, err := core.RunAll(DoubleRegister(), n, ta, core.Config{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := core.CheckWakeupRun(run); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := core.VerifyTheorem61(run); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := core.CheckLemma51(run); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestDoubleRegisterManyTossAssignments(t *testing.T) {
	// The randomized bound must hold for every toss assignment (Theorem
	// 6.1's expectation is over the algorithm's coins; the adversary may
	// not predict them but the bound holds pointwise here).
	for seed := 0; seed < 20; seed++ {
		seed := seed
		ta := func(pid, j int) int64 { return int64((pid*31 + j*17 + seed) % 2) }
		run, err := core.RunAll(DoubleRegister(), 8, ta, core.Config{})
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if err := core.CheckWakeupRun(run); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if err := core.VerifyTheorem61(run); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

func TestMoveCourierUnderAdversary(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		run := checkCorrectWakeup(t, MoveCourier(), n)
		// The adversary's move phase must actually have been exercised.
		moved := false
		for _, round := range run.Rounds {
			if len(round.MovePlan) > 0 {
				moved = true
				break
			}
		}
		if !moved {
			t.Fatalf("n=%d: MoveCourier never reached the move phase", n)
		}
	}
}

func TestCheaterIsCaught(t *testing.T) {
	run := adversaryRun(t, Cheater(), 32)
	catch, err := core.CatchFastWakeup(run)
	if err != nil {
		t.Fatal(err)
	}
	if catch == nil {
		t.Fatal("cheater must be caught at n=32")
	}
	if got := catch.S.Len(); got > 4 {
		t.Fatalf("|UP| after 1 step = %d, want ≤ 4", got)
	}
	if len(catch.NeverStepped) < 32-4 {
		t.Fatalf("NeverStepped = %d processes, want ≥ 28", len(catch.NeverStepped))
	}
}

func TestCheaterPassesAtTinyN(t *testing.T) {
	// For n ≤ 4, one step satisfies 4^1 ≥ n: the bound has no bite and the
	// cheater cannot be caught by step counting.
	run := adversaryRun(t, Cheater(), 3)
	catch, err := core.CatchFastWakeup(run)
	if err != nil {
		t.Fatal(err)
	}
	if catch != nil {
		t.Fatalf("no catch expected at n=3, got %v", catch)
	}
}

func TestWakeupUnderRandomSchedules(t *testing.T) {
	// Conditions (1) and (2) must hold under arbitrary schedules, not just
	// the adversary's lockstep rounds.
	algs := []machine.Algorithm{SetRegister(), MoveCourier()}
	for _, alg := range algs {
		for seed := int64(0); seed < 10; seed++ {
			mem := shmem.New()
			res, err := sched.Execute(alg, 8, mem, sched.NewRandom(seed), machine.ZeroTosses, 100000)
			if err != nil {
				t.Fatalf("%s seed=%d: %v", alg.Name(), seed, err)
			}
			winners := 0
			for _, v := range res.Returns {
				if v == 1 {
					winners++
				}
			}
			if winners == 0 {
				t.Fatalf("%s seed=%d: no winner in a terminating run", alg.Name(), seed)
			}
		}
	}
}

func TestWakeupUnderSequentialSchedule(t *testing.T) {
	// Solo-ish schedule: processes run one after another to completion.
	// The last process must detect wakeup.
	mem := shmem.New()
	res, err := sched.Execute(SetRegister(), 6, mem, sched.Sequential{}, machine.ZeroTosses, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Returns[5] != 1 {
		t.Fatalf("last process returned %v, want 1", res.Returns[5])
	}
	for pid := 0; pid < 5; pid++ {
		if res.Returns[pid] != 0 {
			t.Fatalf("p%d returned %v, want 0", pid, res.Returns[pid])
		}
	}
}

func TestAllReductionsUnderAdversary(t *testing.T) {
	for _, spec := range Reductions() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			for _, n := range []int{1, 2, 4, 8, 16} {
				client := llscClient{typ: spec.Type(n), reg: 0, n: n}
				alg := spec.Build(client)
				run := adversaryRun(t, alg, n)
				if err := core.CheckWakeupRun(run); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if err := core.VerifyTheorem61(run); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if err := core.CheckLemma51(run); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
			}
		})
	}
}

func TestReductionsExactlyOneWinnerSingleOpTypes(t *testing.T) {
	// For the single-operation reductions the winner is unique (the last
	// object operation in linearization order).
	for _, spec := range Reductions() {
		if spec.OpsPerProcess != 1 {
			continue
		}
		client := llscClient{typ: spec.Type(8), reg: 0, n: 8}
		run := adversaryRun(t, spec.Build(client), 8)
		if w := core.WakeupWinners(run.Returns); len(w) != 1 {
			t.Fatalf("%s: winners = %v, want exactly 1", spec.Name, w)
		}
	}
}

func TestReductionsUnderRandomSchedules(t *testing.T) {
	for _, spec := range Reductions() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				client := llscClient{typ: spec.Type(6), reg: 0, n: 6}
				mem := shmem.New()
				res, err := sched.Execute(spec.Build(client), 6, mem, sched.NewRandom(seed), machine.ZeroTosses, 100000)
				if err != nil {
					t.Fatal(err)
				}
				winners := 0
				for _, v := range res.Returns {
					if v == 1 {
						winners++
					}
				}
				if winners == 0 {
					t.Fatalf("seed=%d: no winner", seed)
				}
			}
		})
	}
}

func TestReductionOpsPerProcessBudget(t *testing.T) {
	// Corollary 6.1 requires each process to apply at most k (here ≤ 2)
	// operations on the object. Count object invocations by counting the
	// llscClient's LL steps: each Invoke performs ≥ 1 LL on the object
	// register and nothing else touches it.
	for _, spec := range Reductions() {
		client := countingClient{inner: llscClient{typ: spec.Type(8), reg: 0, n: 8}, calls: make(map[int]int)}
		run := adversaryRun(t, spec.Build(&client), 8)
		if !run.Terminated() {
			t.Fatalf("%s did not terminate", spec.Name)
		}
		for pid, calls := range client.calls {
			if calls > spec.OpsPerProcess {
				t.Fatalf("%s: p%d performed %d object ops, budget %d", spec.Name, pid, calls, spec.OpsPerProcess)
			}
		}
	}
}

// countingClient wraps a client and counts Invoke calls per process.
// Machine goroutines may overlap between scheduler steps, so the counter
// map is mutex-guarded.
type countingClient struct {
	inner llscClient
	mu    sync.Mutex
	calls map[int]int
}

func (c *countingClient) Invoke(p machine.Port, op objtype.Op) objtype.Value {
	c.mu.Lock()
	c.calls[p.ID()]++
	c.mu.Unlock()
	return c.inner.Invoke(p, op)
}

func TestBitsFor(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10}
	for n, want := range cases {
		if got := bitsFor(n); got != want {
			t.Errorf("bitsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCountingNetworkWakeupUnderAdversary(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 32} {
		checkCorrectWakeup(t, CountingNetwork(n), n)
	}
}

func TestCountingNetworkWakeupUnderRandomSchedules(t *testing.T) {
	const n = 8
	for seed := int64(0); seed < 8; seed++ {
		mem := shmem.New()
		res, err := sched.Execute(CountingNetwork(n), n, mem, sched.NewRandom(seed), machine.ZeroTosses, 1_000_000)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		winners := 0
		for _, v := range res.Returns {
			if v == 1 {
				winners++
			}
		}
		if winners != 1 {
			t.Fatalf("seed=%d: %d winners, want exactly 1 (values are distinct)", seed, winners)
		}
	}
}

// TestTASReductionWakeupAtTwo: within its horizon (n ≤ 2) the test&set
// reduction is a correct wakeup algorithm and satisfies Theorem 6.1's
// conclusion under the adversary.
func TestTASReductionWakeupAtTwo(t *testing.T) {
	spec := TASReduction()
	for _, n := range []int{1, 2} {
		client := llscClient{typ: spec.Type(n), reg: 0, n: n}
		run := adversaryRun(t, spec.Build(client), n)
		if err := core.CheckWakeupRun(run); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := core.VerifyTheorem61(run); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestTASReductionUnsoundBeyondTwo exhibits why TASReduction stays out of
// Reductions(): at n = 3 a sequential schedule lets p1 lose to p0 and
// return 1 while p2 has taken no step at all — wakeup condition (3) is
// violated, so no Ω(log n) bound for n ≥ 3 follows from test&set via this
// route. This is the operational face of TAS not being perturbable (the
// object's responses stop carrying information once the state is set).
func TestTASReductionUnsoundBeyondTwo(t *testing.T) {
	spec := TASReduction()
	client := llscClient{typ: spec.Type(3), reg: 0, n: 3}
	mem := shmem.New()
	res, err := sched.Execute(spec.Build(client), 3, mem, sched.Sequential{}, machine.ZeroTosses, 100000)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential runs p0 to completion, then p1, then p2: when p1 returns,
	// p2 is still stepless.
	if res.Returns[0] != 0 {
		t.Fatalf("p0 (winner) returned %v, want 0", res.Returns[0])
	}
	if res.Returns[1] != 1 {
		t.Fatalf("p1 (loser) returned %v, want 1 — the condition-(3) violation this test documents", res.Returns[1])
	}
}
