package core

import (
	"fmt"
	"sort"

	"jayanti98/internal/shmem"
)

// The wakeup problem (Section 1.1): (1) every process terminates in a
// finite number of its steps, returning 0 or 1; (2) in every run in which
// all processes terminate, at least one process returns 1; (3) in every run
// in which one or more processes return 1, every process takes at least one
// step before any process returns 1. Intuitively, the process that wakes up
// last must detect that every other process is up.

// Pow4AtLeast reports whether 4^r ≥ n, i.e. r ≥ log₄ n — the bound of
// Theorem 6.1 on the winner's shared-access step count.
func Pow4AtLeast(r, n int) bool {
	v := 1
	for i := 0; i < r; i++ {
		v *= 4
		if v >= n {
			return true
		}
	}
	return v >= n
}

// Log4Ceil returns ⌈log₄ n⌉, the paper's lower bound on the winner's steps.
func Log4Ceil(n int) int {
	r, v := 0, 1
	for v < n {
		v *= 4
		r++
	}
	return r
}

// WakeupWinners returns, in increasing order, the pids that returned 1.
func WakeupWinners(returns map[int]shmem.Value) []int {
	var winners []int
	for pid, v := range returns {
		if v == 1 {
			winners = append(winners, pid)
		}
	}
	sort.Ints(winners)
	return winners
}

// CheckWakeupRun verifies that the given terminated (All,A)-run satisfies
// the wakeup specification: every process returned 0 or 1, at least one
// returned 1, and no process returned 1 before every process had taken at
// least one shared-memory step. (Condition 3 is checked against the round
// structure: a process returning 1 during Phase 1 of round r has seen only
// rounds ≤ r−1, so every process must have stepped by round r−1.)
func CheckWakeupRun(run *AllRun) error {
	if !run.Terminated() {
		return fmt.Errorf("core: wakeup run did not terminate (%d of %d processes returned)", len(run.Returns), run.N)
	}
	for pid, v := range run.Returns {
		if v != 0 && v != 1 {
			return fmt.Errorf("core: process %d returned %v, want 0 or 1", pid, v)
		}
	}
	winners := WakeupWinners(run.Returns)
	if len(winners) == 0 {
		return fmt.Errorf("core: no process returned 1 in a terminating run")
	}

	// Condition 3. Find the earliest round in which a 1 was returned; every
	// process's first shared-memory step must lie in an earlier round.
	firstOne := -1
	for _, round := range run.Rounds {
		for _, v := range round.Returned {
			if v == 1 && (firstOne == -1 || round.R < firstOne) {
				firstOne = round.R
			}
		}
	}
	for pid := 0; pid < run.N; pid++ {
		if first := run.FirstStepRound[pid]; first == 0 || first >= firstOne {
			return fmt.Errorf("core: process returned 1 in round %d before process %d took any step", firstOne, pid)
		}
	}
	return nil
}

// VerifyTheorem61 checks the conclusion of Theorem 6.1 on a terminated
// wakeup run: every process that returned 1 performed at least log₄ n
// shared-memory operations. For a correct wakeup algorithm this must hold
// in every adversary run; a violation means the algorithm is incorrect (and
// CatchFastWakeup can exhibit the violating (S,A)-run).
func VerifyTheorem61(run *AllRun) error {
	for _, pid := range WakeupWinners(run.Returns) {
		if !Pow4AtLeast(run.Steps[pid], run.N) {
			return fmt.Errorf("core: winner p%d performed %d < ⌈log₄ %d⌉ = %d steps",
				pid, run.Steps[pid], run.N, Log4Ceil(run.N))
		}
	}
	return nil
}

// Catch is the proof of Theorem 6.1 made executable: a winner that returned
// 1 after r < log₄ n steps, the set S = UP(winner, r), and the (S,A)-run in
// which the winner still returns 1 even though the processes outside S
// never take a single step — a violation of the wakeup specification.
type Catch struct {
	// Winner returned 1 after too few steps.
	Winner int
	// WinnerSteps is r, the winner's shared-access step count.
	WinnerSteps int
	// S = UP(winner, r); |S| ≤ 4^r < n.
	S PidSet
	// Sub is the violating (S,A)-run.
	Sub *SubRun
	// NeverStepped lists the processes that take no step in Sub.
	NeverStepped []int
}

// String summarizes the catch.
func (c *Catch) String() string {
	return fmt.Sprintf("winner p%d returned 1 after %d steps; UP = %s (|UP| = %d); in the (S,A)-run %d processes never step yet p%d still returns 1",
		c.Winner, c.WinnerSteps, c.S, c.S.Len(), len(c.NeverStepped), c.Winner)
}

// CatchFastWakeup inspects a terminated wakeup run for a winner whose step
// count r satisfies 4^r < n and, if found, executes the proof of Theorem
// 6.1: it builds S = UP(winner, r), runs the (S,A)-run, and verifies that
// the winner still returns 1 there while the processes outside S never take
// a step. It returns (nil, nil) when every winner is slow enough — the
// algorithm survived this toss assignment.
//
// The indistinguishability between the two runs is also checked, so a
// successful catch carries a machine-checked certificate of the violation.
func CatchFastWakeup(all *AllRun) (*Catch, error) {
	for _, winner := range WakeupWinners(all.Returns) {
		r := all.Steps[winner]
		if Pow4AtLeast(r, all.N) {
			continue
		}
		s := all.UPProcAt(winner, r).Clone()
		sub, err := RunSub(all, s)
		if err != nil {
			return nil, err
		}
		if err := CheckIndist(all, sub); err != nil {
			return nil, fmt.Errorf("core: catch attempted but runs distinguishable: %w", err)
		}
		if sub.Returns[winner] != 1 {
			return nil, fmt.Errorf("core: winner p%d returned %v in the (S,A)-run, want 1 (indistinguishability should force it)",
				winner, sub.Returns[winner])
		}
		var never []int
		for pid := 0; pid < all.N; pid++ {
			if sub.Steps[pid] == 0 {
				never = append(never, pid)
			}
		}
		if len(never) == 0 {
			return nil, fmt.Errorf("core: catch of p%d failed: every process stepped in the (S,A)-run", winner)
		}
		return &Catch{
			Winner:       winner,
			WinnerSteps:  r,
			S:            s,
			Sub:          sub,
			NeverStepped: never,
		}, nil
	}
	return nil, nil
}
