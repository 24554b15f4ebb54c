package core

import (
	"fmt"
	"slices"

	"jayanti98/internal/moveplan"
	"jayanti98/internal/shmem"
)

// updateUP computes UP(X, r) for every process and register from the
// freshly executed round, applying the update rules of Section 5.3
// verbatim. It must be called after the round's Steps, MovePlan and Sigma
// are final, and before the round is appended to the run.
//
// Register rules (mutually exclusive by the phase structure: a move or swap
// on R clears R's Pset before Phase 5, so no SC on R succeeds in a round
// where R was moved into or swapped; likewise swaps overwrite moves):
//
//  1. Some process p performs a successful SC on R:
//     UP(R,r) = UP(p, r−1).
//  2. One or more processes swap R (p = the last of them):
//     UP(R,r) = UP(p, r−1).
//  3. No swap on R but some move into R:
//     UP(R,r) = UP(source(R,σ_r), r−1) ∪ ⋃_{q ∈ movers(R,σ_r)} UP(q, r−1).
//  4. Otherwise: UP(R,r) = UP(R, r−1).
//
// Process rules for p's (single) operation in round r:
//
//  1. LL or validate on R:        UP(p,r) = UP(p,r−1) ∪ UP(R,r−1).
//  2. move:                       UP(p,r) = UP(p,r−1).
//  3. first swap on R, no move into R:
//     UP(p,r) = UP(p,r−1) ∪ UP(R,r−1).
//  4. first swap on R, some move into R:
//     UP(p,r) = UP(p,r−1) ∪ UP(source(R,σ_r),r−1) ∪ ⋃_{q∈movers} UP(q,r−1).
//  5. swap on R immediately after q's swap:
//     UP(p,r) = UP(p,r−1) ∪ UP(q,r−1).
//  6. successful SC on R:         UP(p,r) = UP(p,r−1) ∪ UP(R,r−1).
//  7. unsuccessful SC on R:       UP(p,r) = UP(p,r−1) ∪ UP(R,r).
//  8. no shared-memory operation: UP(p,r) = UP(p,r−1).
//
// UP sets stored in run records are immutable. In history mode a process
// whose set did not change shares the round-(r−1) set, and a register takes
// its writer's set without copying. In NoHistory mode no round keeps its
// sets, so UP(·, r) is computed in place into the buffer that held
// UP(·, r−2) while UP(·, r−1) stays readable in the other.
func updateUP(run *AllRun, round *Round) {
	// UP(p, r−1) and UP(R, r−1); an absent register's set is ∅.
	prev := run.curUPProc
	prevReg := func(reg int) PidSet { return run.curUPReg[reg] }

	var tracker *moveplan.Tracker
	if len(round.MovePlan) > 0 {
		tracker = moveplan.Eval(round.MovePlan, round.Sigma)
	}
	// moveUP(R) is the union of rule 3's UP-of-source and UPs-of-movers.
	moveUP := func(reg int) PidSet {
		s := prevReg(tracker.Source(reg)).Clone()
		for _, q := range tracker.Movers(reg) {
			s.UnionWith(prev[q])
		}
		return s
	}

	// Registers: UP(R, r) for each register written this round. Every
	// other register keeps UP(R, r−1) (rule 4).
	up := &run.up
	up.written = writtenRegisters(round, up.written[:0])
	up.regs = up.regs[:0]
	for _, reg := range up.written {
		s := prevReg(reg)
		if p := round.successfulSC(reg); p >= 0 { // rule 1
			s = prev[p]
		} else if p := swapperBefore(round.Steps, len(round.Steps), reg); p >= 0 { // rule 2
			s = prev[p]
		} else if round.movedInto(reg) { // rule 3
			s = moveUP(reg)
		}
		up.regs = append(up.regs, s)
	}
	// curReg is UP(R, r), needed by process rule 7.
	curReg := func(reg int) PidSet {
		if i := slices.Index(up.written, reg); i >= 0 {
			return up.regs[i]
		}
		return prevReg(reg)
	}

	// Processes: start from UP(p, r−1) (rules 2 and 8), then fold in what
	// each process's one operation revealed.
	var next []PidSet
	if run.NoHistory {
		next = up.spare
		if next == nil {
			next = make([]PidSet, run.N)
		}
		for pid := range next {
			next[pid].copyFrom(prev[pid])
		}
	} else {
		next = append([]PidSet(nil), prev...)
	}
	for i, step := range round.Steps {
		var learned PidSet
		reg := step.Op.Reg
		switch step.Op.Kind {
		case shmem.OpLL, shmem.OpValidate: // rule 1
			learned = prevReg(reg)
		case shmem.OpMove: // rule 2
			continue
		case shmem.OpSwap:
			switch q := swapperBefore(round.Steps, i, reg); {
			case q >= 0: // rule 5
				learned = prev[q]
			case round.movedInto(reg): // rule 4
				learned = moveUP(reg)
			default: // rule 3
				learned = prevReg(reg)
			}
		case shmem.OpSC:
			if step.Resp.OK { // rule 6
				learned = prevReg(reg)
			} else { // rule 7
				learned = curReg(reg)
			}
		}
		if run.NoHistory {
			next[step.Pid].UnionWith(learned)
		} else {
			next[step.Pid] = prev[step.Pid].union(learned)
		}
	}

	// Incremental Lemma 5.1 check (so NoHistory runs can still report it).
	if run.lemma51Err == nil {
		run.lemma51Err = checkLemma51Round(round.R, next, up.written, up.regs)
	}

	if run.NoHistory {
		// Registers copy their sets into storage of their own: the
		// process buffer they may point into is overwritten next round.
		if run.curUPReg == nil {
			run.curUPReg = make(map[int]PidSet)
		}
		for i, reg := range up.written {
			s := run.curUPReg[reg]
			s.copyFrom(up.regs[i])
			run.curUPReg[reg] = s
		}
		up.spare = prev
	} else {
		upReg := make(map[int]PidSet, len(run.curUPReg)+len(up.written))
		for reg, s := range run.curUPReg {
			upReg[reg] = s
		}
		for i, reg := range up.written {
			upReg[reg] = up.regs[i]
		}
		round.UPProc = next
		round.UPReg = upReg
		run.curUPReg = upReg
	}
	run.curUPProc = next
}

// upScratch is the per-run scratch of updateUP.
type upScratch struct {
	// written lists the registers written in the current round and regs
	// their UP(R, r), index for index.
	written []int
	regs    []PidSet
	// spare is the NoHistory buffer UP(·, r) is computed into.
	spare []PidSet
}

// checkLemma51Round verifies |UP(X, r)| ≤ 4^r for the just-updated sets.
// Only registers written this round can have grown, so only they are
// checked (unwritten registers carry forward already-checked sets).
func checkLemma51Round(r int, upProc []PidSet, written []int, upReg []PidSet) error {
	n := len(upProc)
	bound := 1
	for i := 0; i < r && bound < n; i++ {
		bound *= 4
	}
	if bound >= n {
		return nil // vacuous: |UP| ≤ n always
	}
	for pid, up := range upProc {
		if up.Len() > bound {
			return fmt.Errorf("core: |UP(p%d, %d)| = %d exceeds 4^%d = %d", pid, r, up.Len(), r, bound)
		}
	}
	for i, reg := range written {
		if up := upReg[i]; up.Len() > bound {
			return fmt.Errorf("core: |UP(R%d, %d)| = %d exceeds 4^%d = %d", reg, r, up.Len(), r, bound)
		}
	}
	return nil
}

// writtenRegisters appends to regs, once each, the registers whose value
// may have changed this round: targets of successful SCs, swaps, and moves.
// A round writes few distinct registers, so a linear scan dedupes them.
func writtenRegisters(round *Round, regs []int) []int {
	for _, s := range round.Steps {
		switch {
		case s.Op.Kind == shmem.OpSwap, s.Op.Kind == shmem.OpMove, s.Op.Kind == shmem.OpSC && s.Resp.OK:
			if !slices.Contains(regs, s.Op.Reg) {
				regs = append(regs, s.Op.Reg)
			}
		}
	}
	return regs
}

// CheckLemma51 verifies Lemma 5.1 on a completed run: for every process or
// register X and every round r, |UP(X, r)| ≤ 4^r. It returns nil if the
// bound holds everywhere.
func CheckLemma51(run *AllRun) error {
	if run.NoHistory {
		// The bound was checked incrementally during the run.
		return run.lemma51Err
	}
	bound := 1 // 4^0
	for _, round := range run.Rounds {
		if bound >= run.N {
			break // 4^r ≥ n: the bound is vacuous (|UP| ≤ n always)
		}
		bound *= 4 // now 4^r for this round
		for pid, up := range round.UPProc {
			if up.Len() > bound {
				return fmt.Errorf("core: |UP(p%d, %d)| = %d exceeds 4^%d = %d", pid, round.R, up.Len(), round.R, bound)
			}
		}
		for reg, up := range round.UPReg {
			if up.Len() > bound {
				return fmt.Errorf("core: |UP(R%d, %d)| = %d exceeds 4^%d = %d", reg, round.R, up.Len(), round.R, bound)
			}
		}
	}
	return nil
}
