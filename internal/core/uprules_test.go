package core

import (
	"testing"

	"jayanti98/internal/machine"
	"jayanti98/internal/shmem"
)

// Targeted scenarios for the less-travelled update rules of Section 5.3.
// Each test constructs an algorithm whose round structure is known exactly
// and asserts the resulting UP sets verbatim.

// pick builds an algorithm where each pid runs its own script.
func pick(scripts ...machine.Body) machine.Algorithm {
	return machine.New("scenario", func(e *machine.Env) shmem.Value {
		return scripts[e.ID()](e)
	})
}

func TestUPRule4FirstSwapperSeesMoversAndSource(t *testing.T) {
	// Round 1: p0 swaps R10 (announcing itself), p1 swaps R20.
	// Round 2: p0 moves R10 → R0 while p1 swaps R0.
	// The move phase precedes the swap phase, so p1 is the first swapper
	// on R0 with a move into it in the same round: process rule 4 gives
	// UP(p1,2) = {p1} ∪ UP(R10,1) ∪ UP(p0,1) = {p0, p1}.
	alg := pick(
		func(e *machine.Env) shmem.Value { // p0
			e.Swap(10, "a")
			e.Move(10, 0)
			return 0
		},
		func(e *machine.Env) shmem.Value { // p1
			e.Swap(20, "b")
			e.Swap(0, "c")
			return 0
		},
	)
	run := mustRunAll(t, alg, 2)
	if up := run.UPProcAt(1, 2); !sameSet(up, NewPidSet(0, 1)) {
		t.Fatalf("UP(p1,2) = %v, want {p0, p1}", up)
	}
	// Register rule 2: the swap overwrites the move; UP(R0,2) = UP(p1,1).
	if up := run.UPRegAt(0, 2); !sameSet(up, NewPidSet(1)) {
		t.Fatalf("UP(R0,2) = %v, want {p1}", up)
	}
}

func TestUPRule7FailedSCLearnsFromRoundRSwap(t *testing.T) {
	// Round 1: both processes LL R0. Round 2: p0 swaps R0 (phase 4)
	// invalidating p1's link, then p1's SC fails (phase 5). Rule 7:
	// UP(p1,2) = {p1} ∪ UP(R0,2) = {p1} ∪ UP(p0,1) = {p0, p1}.
	alg := pick(
		func(e *machine.Env) shmem.Value { // p0
			e.LL(0)
			e.Swap(0, "x")
			return 0
		},
		func(e *machine.Env) shmem.Value { // p1
			e.LL(0)
			ok, _ := e.SC(0, "y")
			if ok {
				return "unexpected-success"
			}
			return 0
		},
	)
	run := mustRunAll(t, alg, 2)
	if run.Returns[1] != 0 {
		t.Fatalf("p1 returned %v; its SC must fail after p0's swap", run.Returns[1])
	}
	if up := run.UPProcAt(1, 2); !sameSet(up, NewPidSet(0, 1)) {
		t.Fatalf("UP(p1,2) = %v, want {p0, p1}", up)
	}
}

func TestUPRule7FailedSCLearnsFromRoundRMove(t *testing.T) {
	// Round 1: p0 swaps R5, p1 LLs R0. Round 2: p0 moves R5 → R0 (phase 3,
	// clearing R0's Pset), p1's SC on R0 fails (phase 5). Rule 7 via
	// register rule 3: UP(p1,2) = {p1} ∪ UP(R5,1) ∪ UP(p0,1) = {p0, p1}.
	alg := pick(
		func(e *machine.Env) shmem.Value { // p0
			e.Swap(5, "v")
			e.Move(5, 0)
			return 0
		},
		func(e *machine.Env) shmem.Value { // p1
			e.LL(0)
			ok, _ := e.SC(0, "y")
			if ok {
				return "unexpected-success"
			}
			return 0
		},
	)
	run := mustRunAll(t, alg, 2)
	if run.Returns[1] != 0 {
		t.Fatalf("p1 returned %v; its SC must fail after the move into R0", run.Returns[1])
	}
	if up := run.UPProcAt(1, 2); !sameSet(up, NewPidSet(0, 1)) {
		t.Fatalf("UP(p1,2) = %v, want {p0, p1}", up)
	}
	if up := run.UPRegAt(0, 2); !sameSet(up, NewPidSet(0)) {
		t.Fatalf("UP(R0,2) = %v, want {p0} (source was p0's register)", up)
	}
}

func TestUPRuleValidateReadsRegisterKnowledge(t *testing.T) {
	// Round 1: p0 swaps R0 (so UP(R0,1) = {p0}); p1 idles on a private
	// register. Round 2: p1 validates R0 — rule 1 applies to validate just
	// as to LL: UP(p1,2) = {p1} ∪ UP(R0,1) = {p0, p1}.
	alg := pick(
		func(e *machine.Env) shmem.Value { // p0
			e.Swap(0, "x")
			return 0
		},
		func(e *machine.Env) shmem.Value { // p1
			e.Swap(9, "w") // keep round alignment: one op in round 1
			e.Validate(0)
			return 0
		},
	)
	run := mustRunAll(t, alg, 2)
	if up := run.UPProcAt(1, 2); !sameSet(up, NewPidSet(0, 1)) {
		t.Fatalf("UP(p1,2) = %v, want {p0, p1}", up)
	}
}

func TestUPTwoHopMoveChainRevealsTwoMovers(t *testing.T) {
	// Round 1: p0 swaps R10; p1 and p2 swap private registers.
	// Round 2: p0 moves R10 → R11 while p1 idles (validate); p2 idles.
	// Round 3: p1 moves R11 → R12 — its source's movers chain is (p0), so
	// after round 3, movers(R12) = (p0, p1) and
	// UP(R12,3) = UP(R10,1... source) ∪ UP(p0,2) ∪ UP(p1,2) ⊇ {p0, p1}.
	alg := pick(
		func(e *machine.Env) shmem.Value { // p0
			e.Swap(10, "v")
			e.Move(10, 11)
			return 0
		},
		func(e *machine.Env) shmem.Value { // p1
			e.Swap(21, "a")
			e.Validate(21)
			e.Move(11, 12)
			return 0
		},
		func(e *machine.Env) shmem.Value { // p2
			e.Swap(22, "b")
			return 0
		},
	)
	run := mustRunAll(t, alg, 3)
	up := run.UPRegAt(12, 3)
	want := NewPidSet(0, 1)
	if !want.SubsetOf(up) {
		t.Fatalf("UP(R12,3) = %v, want ⊇ {p0, p1}", up)
	}
	if up.Contains(2) {
		t.Fatalf("UP(R12,3) = %v must not contain the uninvolved p2", up)
	}
	// The value moved two hops: R12 now holds R10's original value.
	last := run.Rounds[len(run.Rounds)-1]
	if got := last.MemSnap[12].Val; got != "v" {
		t.Fatalf("R12 = %v, want v", got)
	}
}

func TestFinalUPProcMatchesLastRound(t *testing.T) {
	run := mustRunAll(t, setRegisterWakeup, 5)
	for pid := 0; pid < 5; pid++ {
		if !sameSet(run.FinalUPProc(pid), run.UPProcAt(pid, len(run.Rounds))) {
			t.Fatalf("FinalUPProc(p%d) disagrees with last round", pid)
		}
	}
}

func TestNoHistoryRunsRejectSubRunsButKeepChecks(t *testing.T) {
	run, err := RunAll(setRegisterWakeup, 6, machine.ZeroTosses, Config{NoHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSub(run, NewPidSet(0)); err == nil {
		t.Fatal("RunSub must reject NoHistory runs")
	}
	if err := CheckLemma51(run); err != nil {
		t.Fatalf("incremental Lemma 5.1 must still work: %v", err)
	}
	if err := CheckWakeupRun(run); err != nil {
		t.Fatalf("spec check must still work: %v", err)
	}
	if err := VerifyTheorem61(run); err != nil {
		t.Fatalf("theorem check must still work: %v", err)
	}
	// Per-round payloads must have been dropped.
	for _, round := range run.Rounds {
		if round.Steps != nil || round.UPProc != nil {
			t.Fatal("NoHistory round kept heavy payloads")
		}
	}
}
