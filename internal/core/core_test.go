package core

import (
	"strings"
	"testing"

	"jayanti98/internal/machine"
	"jayanti98/internal/shmem"
	"jayanti98/internal/wakeup"
)

// setRegisterWakeup is a minimal correct wakeup algorithm used to exercise
// the adversary: one unbounded register holds the set of pids seen so far
// (as a sorted string encoding); each process LL/SC-retries to insert its
// id; whoever completes the set returns 1. (The production version with
// richer reporting lives in package wakeup.)
var setRegisterWakeup = machine.New("set-register", func(e *machine.Env) shmem.Value {
	for {
		v := e.LL(0)
		set := decodeSet(v)
		if set.Contains(e.ID()) {
			// Only we insert our id; seeing it means our SC succeeded.
			return 0
		}
		set.Add(e.ID())
		if ok, _ := e.SC(0, encodeSet(set)); ok {
			if set.Len() == e.N() {
				return 1
			}
			return 0
		}
	}
})

// cheaterWakeup is deliberately broken: it "detects" wakeup after a single
// shared-memory operation, which Theorem 6.1 proves impossible for n > 4.
var cheaterWakeup = machine.New("cheater", func(e *machine.Env) shmem.Value {
	e.Swap(e.ID(), 1) // announce
	return 1          // claim victory immediately (wrong!)
})

func encodeSet(s PidSet) string {
	var b strings.Builder
	for _, p := range s.Sorted() {
		b.WriteString(",")
		b.WriteString(pidString(p))
	}
	return b.String()
}

func pidString(p int) string {
	const digits = "0123456789"
	if p == 0 {
		return "0"
	}
	var out []byte
	for p > 0 {
		out = append([]byte{digits[p%10]}, out...)
		p /= 10
	}
	return string(out)
}

func decodeSet(v shmem.Value) PidSet {
	s := NewPidSet()
	str, _ := v.(string)
	for _, part := range strings.Split(str, ",") {
		if part == "" {
			continue
		}
		n := 0
		for _, c := range part {
			n = n*10 + int(c-'0')
		}
		s.Add(n)
	}
	return s
}

func mustRunAll(t *testing.T, alg machine.Algorithm, n int) *AllRun {
	t.Helper()
	run, err := RunAll(alg, n, machine.ZeroTosses, Config{})
	if err != nil {
		t.Fatalf("RunAll(%s, %d): %v", alg.Name(), n, err)
	}
	return run
}

func TestPidSetBasics(t *testing.T) {
	s := NewPidSet(3, 1)
	s.Add(2)
	if !s.Contains(1) || !s.Contains(2) || !s.Contains(3) || s.Contains(0) {
		t.Fatal("membership wrong")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	o := s.Clone()
	o.Add(9)
	if s.Contains(9) {
		t.Fatal("Clone must be independent")
	}
	if !s.SubsetOf(o) || o.SubsetOf(s) {
		t.Fatal("SubsetOf wrong")
	}
	u := Union(NewPidSet(1), NewPidSet(2), NewPidSet(1, 5))
	if !u.Equal(NewPidSet(1, 2, 5)) {
		t.Fatalf("Union = %v", u)
	}
	if got := NewPidSet(2, 0).String(); got != "{p0, p2}" {
		t.Fatalf("String = %q", got)
	}
	if got := s.Sorted(); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Sorted = %v", got)
	}
}

func TestAdversaryRoundStructure(t *testing.T) {
	// Each process: LL(0), then SC(0, id), then return. Round 1 must be all
	// LLs (G1), round 2 all SCs (G4) with exactly one success (p0, lowest
	// id first), round 3 only returns.
	alg := machine.New("ll-then-sc", func(e *machine.Env) shmem.Value {
		e.LL(0)
		ok, _ := e.SC(0, e.ID())
		if ok {
			return 1
		}
		return 0
	})
	run := mustRunAll(t, alg, 4)
	if !run.Terminated() {
		t.Fatal("run did not terminate")
	}
	if len(run.Rounds) != 3 {
		t.Fatalf("rounds = %d, want 3 (LL, SC, returns)", len(run.Rounds))
	}
	r1, r2 := run.Rounds[0], run.Rounds[1]
	if len(r1.Groups[0]) != 4 || len(r1.Groups[3]) != 0 {
		t.Fatalf("round 1 groups = %v", r1.Groups)
	}
	if len(r2.Groups[3]) != 4 {
		t.Fatalf("round 2 SC group = %v", r2.Groups[3])
	}
	if got := r2.successfulSC(0); got != 0 {
		t.Fatalf("successful SC by p%d, want p0 (id order)", got)
	}
	// Exactly one success.
	succ := 0
	for _, s := range r2.Steps {
		if s.Op.Kind == shmem.OpSC && s.Resp.OK {
			succ++
		}
	}
	if succ != 1 {
		t.Fatalf("%d successful SCs in round 2, want 1", succ)
	}
	// Only p0 returns 1.
	if run.Returns[0] != 1 {
		t.Fatalf("p0 returned %v, want 1", run.Returns[0])
	}
	for pid := 1; pid < 4; pid++ {
		if run.Returns[pid] != 0 {
			t.Fatalf("p%d returned %v, want 0", pid, run.Returns[pid])
		}
	}
}

func TestUPRulesLLAndSC(t *testing.T) {
	alg := machine.New("ll-then-sc", func(e *machine.Env) shmem.Value {
		e.LL(0)
		e.SC(0, e.ID())
		return 0
	})
	run := mustRunAll(t, alg, 4)

	// Round 1: every p did LL(R0); UP(p,1) = {p} ∪ UP(R0,0) = {p}.
	for pid := 0; pid < 4; pid++ {
		if up := run.UPProcAt(pid, 1); !up.Equal(NewPidSet(pid)) {
			t.Fatalf("UP(p%d,1) = %v, want {p%d}", pid, up, pid)
		}
	}
	// Round 1: no writes; UP(R0,1) = ∅.
	if up := run.UPRegAt(0, 1); up.Len() != 0 {
		t.Fatalf("UP(R0,1) = %v, want empty", up)
	}
	// Round 2: p0's SC succeeds → UP(R0,2) = UP(p0,1) = {p0};
	if up := run.UPRegAt(0, 2); !up.Equal(NewPidSet(0)) {
		t.Fatalf("UP(R0,2) = %v, want {p0}", up)
	}
	// p0: successful SC → UP(p0,2) = UP(p0,1) ∪ UP(R0,1) = {p0}.
	if up := run.UPProcAt(0, 2); !up.Equal(NewPidSet(0)) {
		t.Fatalf("UP(p0,2) = %v, want {p0}", up)
	}
	// p1..p3: failed SC → UP(p,2) = UP(p,1) ∪ UP(R0,2) = {p, p0}.
	for pid := 1; pid < 4; pid++ {
		if up := run.UPProcAt(pid, 2); !up.Equal(NewPidSet(pid, 0)) {
			t.Fatalf("UP(p%d,2) = %v, want {p0, p%d}", pid, up, pid)
		}
	}
}

func TestUPRulesSwapChain(t *testing.T) {
	// All processes swap register 0 in the same round. Swap order is pid
	// order: p0 first (rule 3: sees UP(R,r−1) = ∅), p_i sees p_{i−1}
	// (rule 5); register ends with the last swapper's knowledge (rule 2).
	alg := machine.New("swap-once", func(e *machine.Env) shmem.Value {
		e.Swap(0, e.ID())
		return 0
	})
	run := mustRunAll(t, alg, 4)
	if up := run.UPProcAt(0, 1); !up.Equal(NewPidSet(0)) {
		t.Fatalf("UP(p0,1) = %v, want {p0}", up)
	}
	for pid := 1; pid < 4; pid++ {
		want := NewPidSet(pid, pid-1)
		if up := run.UPProcAt(pid, 1); !up.Equal(want) {
			t.Fatalf("UP(p%d,1) = %v, want %v", pid, up, want)
		}
	}
	// Register: last swapper is p3; UP(R0,1) = UP(p3,0) = {p3}.
	if up := run.UPRegAt(0, 1); !up.Equal(NewPidSet(3)) {
		t.Fatalf("UP(R0,1) = %v, want {p3}", up)
	}
}

func TestUPRulesMove(t *testing.T) {
	// p_i writes its id to register 10+i in round 1 (swap), then moves
	// register 10+i into register 20 in round 2. The last mover in σ_2
	// determines R20's source; UP(R20,2) = UP(source,1) ∪ movers' UP(·,1).
	alg := machine.New("swap-then-move", func(e *machine.Env) shmem.Value {
		e.Swap(10+e.ID(), e.ID())
		e.Move(10+e.ID(), 20)
		return 0
	})
	run := mustRunAll(t, alg, 3)
	r2 := run.Rounds[1]
	if len(r2.MovePlan) != 3 {
		t.Fatalf("move plan = %v", r2.MovePlan)
	}
	if len(r2.Sigma) != 3 {
		t.Fatalf("sigma = %v", r2.Sigma)
	}
	up := run.UPRegAt(20, 2)
	// All sources are fresh in round 2, so each register's movers chain has
	// exactly one process; UP(R20,2) = UP(R_{10+q},1) ∪ UP(q,1) where q is
	// the last process in σ_2 with destination 20 — every pid has dest 20,
	// so q is σ_2's last element.
	q := r2.Sigma[len(r2.Sigma)-1]
	// UP(R_{10+q},1): q swapped it alone in round 1 → {q}; UP(q,1) = {q}.
	if !up.Equal(NewPidSet(q)) {
		t.Fatalf("UP(R20,2) = %v, want {p%d}", up, q)
	}
	// Movers must reveal at most two processes (secretive schedule).
	if err := CheckLemma51(run); err != nil {
		t.Fatal(err)
	}
}

func TestUPRuleMoverGainsNothing(t *testing.T) {
	alg := machine.New("mover", func(e *machine.Env) shmem.Value {
		e.Move(5, 6)
		return 0
	})
	run := mustRunAll(t, alg, 2)
	for pid := 0; pid < 2; pid++ {
		if up := run.UPProcAt(pid, 1); !up.Equal(NewPidSet(pid)) {
			t.Fatalf("UP(p%d,1) = %v, want {p%d} (move returns only ack)", pid, up, pid)
		}
	}
}

func TestLemma51OnSetRegisterWakeup(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		run := mustRunAll(t, setRegisterWakeup, n)
		if err := CheckLemma51(run); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestSetRegisterWakeupSatisfiesSpec(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 16} {
		run := mustRunAll(t, setRegisterWakeup, n)
		if err := CheckWakeupRun(run); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := VerifyTheorem61(run); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestIndistinguishabilityOnSetRegister(t *testing.T) {
	// For every process p and its final-knowledge set S = UP(p, steps(p)),
	// the (S,A)-run must be indistinguishable from the (All,A)-run.
	run := mustRunAll(t, setRegisterWakeup, 8)
	for pid := 0; pid < 8; pid++ {
		s := run.UPProcAt(pid, run.Steps[pid]).Clone()
		sub, err := RunSub(run, s)
		if err != nil {
			t.Fatalf("p%d: %v", pid, err)
		}
		if err := CheckIndist(run, sub); err != nil {
			t.Fatalf("p%d (S=%v): %v", pid, s, err)
		}
	}
}

func TestIndistinguishabilityWithFullSet(t *testing.T) {
	// S = all processes: the (S,A)-run IS the (All,A)-run.
	run := mustRunAll(t, setRegisterWakeup, 6)
	all := FullPidSet(6)
	sub, err := RunSub(run, all)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckIndist(run, sub); err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < 6; pid++ {
		if sub.Steps[pid] != run.Steps[pid] {
			t.Fatalf("p%d steps %d vs %d", pid, sub.Steps[pid], run.Steps[pid])
		}
		if sub.Returns[pid] != run.Returns[pid] {
			t.Fatalf("p%d returns %v vs %v", pid, sub.Returns[pid], run.Returns[pid])
		}
	}
}

func TestCheaterViolatesTheorem61(t *testing.T) {
	run := mustRunAll(t, cheaterWakeup, 16)
	if err := VerifyTheorem61(run); err == nil {
		t.Fatal("cheater with 1 step must violate the log₄ n bound for n = 16")
	}
}

func TestCatchFastWakeup(t *testing.T) {
	run := mustRunAll(t, cheaterWakeup, 16)
	catch, err := CatchFastWakeup(run)
	if err != nil {
		t.Fatal(err)
	}
	if catch == nil {
		t.Fatal("cheater must be caught")
	}
	if catch.WinnerSteps != 1 {
		t.Fatalf("winner steps = %d, want 1", catch.WinnerSteps)
	}
	if catch.S.Len() >= 16 {
		t.Fatalf("|S| = %d, want < n", catch.S.Len())
	}
	if len(catch.NeverStepped) == 0 {
		t.Fatal("someone must never step in the violating run")
	}
	if catch.Sub.Returns[catch.Winner] != 1 {
		t.Fatal("winner must still return 1 in the (S,A)-run")
	}
	if !strings.Contains(catch.String(), "returned 1") {
		t.Fatalf("Catch.String() = %q", catch.String())
	}
}

func TestCatchReturnsNilForCorrectAlgorithm(t *testing.T) {
	run := mustRunAll(t, setRegisterWakeup, 8)
	catch, err := CatchFastWakeup(run)
	if err != nil {
		t.Fatal(err)
	}
	if catch != nil {
		t.Fatalf("correct algorithm must not be caught: %v", catch)
	}
}

func TestRandomizedTossesMatchAcrossRuns(t *testing.T) {
	// A randomized algorithm: toss a coin to pick one of two registers,
	// swap the id there, read the other, return 0/1 by parity. The sub-run
	// must consume identical toss outcomes (checked by CheckIndist through
	// numtosses and state keys).
	alg := machine.New("random-probe", func(e *machine.Env) shmem.Value {
		b := e.Toss() % 2
		e.Swap(int(b), e.ID())
		v := e.Read(int(1 - b))
		e.Toss() // a second toss after the last shared step
		if v == nil {
			return 0
		}
		return 1
	})
	ta := func(pid, j int) int64 { return int64((pid + j) % 2) }
	run, err := RunAll(alg, 6, ta, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < 6; pid++ {
		s := run.UPProcAt(pid, run.Steps[pid]).Clone()
		sub, err := RunSub(run, s)
		if err != nil {
			t.Fatalf("p%d: %v", pid, err)
		}
		if err := CheckIndist(run, sub); err != nil {
			t.Fatalf("p%d: %v", pid, err)
		}
	}
}

func TestRunAllRoundBudget(t *testing.T) {
	spinner := machine.New("spin", func(e *machine.Env) shmem.Value {
		for {
			e.Read(0)
		}
	})
	_, err := RunAll(spinner, 2, machine.ZeroTosses, Config{MaxRounds: 10})
	if err == nil {
		t.Fatal("non-terminating algorithm must exhaust the round budget")
	}
}

func TestMemInitIsApplied(t *testing.T) {
	alg := machine.New("read-init", func(e *machine.Env) shmem.Value {
		return e.Read(7)
	})
	run, err := RunAll(alg, 2, machine.ZeroTosses, Config{
		MemInit: func(reg int) shmem.Value { return reg * 2 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Returns[0] != 14 {
		t.Fatalf("Returns[0] = %v, want 14", run.Returns[0])
	}
	// Sub-run must see the same initialization.
	sub, err := RunSub(run, NewPidSet(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckIndist(run, sub); err != nil {
		t.Fatal(err)
	}
}

func TestPow4AndLog4(t *testing.T) {
	if !Pow4AtLeast(0, 1) || Pow4AtLeast(0, 2) {
		t.Fatal("Pow4AtLeast base cases wrong")
	}
	if !Pow4AtLeast(2, 16) || Pow4AtLeast(1, 16) {
		t.Fatal("Pow4AtLeast(·, 16) wrong")
	}
	cases := map[int]int{1: 0, 2: 1, 4: 1, 5: 2, 16: 2, 17: 3, 64: 3, 1024: 5}
	for n, want := range cases {
		if got := Log4Ceil(n); got != want {
			t.Errorf("Log4Ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestMaxStepsAndUPAccessors(t *testing.T) {
	run := mustRunAll(t, setRegisterWakeup, 4)
	steps, pid := run.MaxSteps()
	if steps <= 0 || pid < 0 || pid >= 4 {
		t.Fatalf("MaxSteps = (%d, %d)", steps, pid)
	}
	if up := run.UPProcAt(2, 0); !up.Equal(NewPidSet(2)) {
		t.Fatalf("UP(p2,0) = %v", up)
	}
	if up := run.UPRegAt(99, 0); up.Len() != 0 {
		t.Fatalf("UP(R99,0) = %v", up)
	}
}

// TestRunAllAllocs pins the allocation count of a NoHistory (All,A)-run of
// the set-register wakeup algorithm at n = 64: 2080 SC attempts, each
// allocating its encoded argument and the interface box it travels in,
// plus a few hundred per-round and per-process allocations. Per-round map
// churn or per-step UP-set clones would push it far past the pin.
func TestRunAllAllocs(t *testing.T) {
	const n, maxAllocs = 64, 5050 // measured: 4922
	got := testing.AllocsPerRun(5, func() {
		if _, err := RunAll(wakeup.SetRegister(), n, machine.ZeroTosses, Config{NoHistory: true}); err != nil {
			t.Fatal(err)
		}
	})
	if got > maxAllocs {
		t.Fatalf("RunAll(set-register, n=%d, NoHistory) allocates %.0f times, want ≤ %d", n, got, maxAllocs)
	}
}
