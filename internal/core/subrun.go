package core

import (
	"fmt"

	"jayanti98/internal/machine"
	"jayanti98/internal/shmem"
)

// SubRun is an (S,A)-run (Figure 3): a replay of the adversary schedule in
// which only processes that — in the (All,A)-run — never gathered evidence
// of a process outside S take steps. Round r schedules exactly
// S_r = { p | UP(p, r−1) ⊆ S }, partitions them into the same four groups,
// and orders the move group by the restriction of the all-run's σ_r
// (well defined by Claim A.3: S_{2,r} ⊆ G_{2,r}).
type SubRun struct {
	// All is the (All,A)-run this sub-run shadows.
	All *AllRun
	// S is the process subset.
	S PidSet
	// Rounds holds one record per round, aligned 1:1 with All.Rounds.
	// UPProc/UPReg are nil here — UP sets are defined on the all-run.
	Rounds []*Round
	// Returns maps each terminated pid to its return value.
	Returns map[int]shmem.Value
	// Steps[p] is p's total shared-access step count.
	Steps []int
}

// participants computes S_r for 1 ≤ r ≤ len(All.Rounds) into dst, reusing
// its storage: the processes scheduled in round r of the sub-run.
func (s *SubRun) participants(r int, dst *PidSet) {
	dst.reset()
	for pid := 0; pid < s.All.N; pid++ {
		if s.All.UPProcAt(pid, r-1).SubsetOf(s.S) {
			dst.Add(pid)
		}
	}
}

// RunSub executes the (S,A)-run corresponding to all, for exactly as many
// rounds as the all-run executed. The same toss assignment A supplies coin
// outcomes, so the j-th toss of p matches across the two runs.
func RunSub(all *AllRun, s PidSet) (*SubRun, error) {
	if all.NoHistory {
		return nil, fmt.Errorf("core: (S,A)-run requires an (All,A)-run executed with history (Config.NoHistory unset)")
	}
	mem := shmem.New()
	ms := machine.StartAll(all.Alg, all.N)
	defer machine.CloseAll(ms)

	sub := &SubRun{
		All:     all,
		S:       s,
		Returns: make(map[int]shmem.Value, all.N),
		Steps:   make([]int, all.N),
	}

	var sr PidSet
	var live []int
	for r := 1; r <= len(all.Rounds); r++ {
		round := &Round{R: r}
		sub.participants(r, &sr)

		// Phase 1 over S_r only.
		var err error
		live, err = phase1(ms, &sr, all.TA, round, sub.Returns, live[:0])
		if err != nil {
			return sub, fmt.Errorf("(S,A)-run: %w", err)
		}
		if len(live) > 0 {
			partition(ms, live, round)
			if len(round.MovePlan) > 0 {
				// Claim A.3: every mover here also moved in the all-run, so
				// the all-run's σ_r restricted to this round's move group is
				// a complete schedule for it. A process moving here but not
				// in the all-run would witness a divergence — surface it.
				keep := make(map[int]bool, len(round.Groups[1]))
				for _, pid := range round.Groups[1] {
					if _, ok := all.Rounds[r-1].MovePlan[pid]; !ok {
						return sub, fmt.Errorf("(S,A)-run: process %d moves in round %d of the sub-run but not in the all-run (Claim A.3 violated)", pid, r)
					}
					keep[pid] = true
				}
				round.Sigma = all.Rounds[r-1].Sigma.Restrict(keep)
				round.Groups[1] = []int(round.Sigma)
			}
			execRound(mem, ms, round, sub.Steps)
		}
		snapshot(mem, ms, round)
		sub.Rounds = append(sub.Rounds, round)
	}
	return sub, nil
}

// IndistError reports a violation of the Indistinguishability Lemma.
type IndistError struct {
	Round  int
	What   string // "process" or "register"
	Index  int    // pid or register index
	Detail string
}

// Error implements error.
func (e *IndistError) Error() string {
	return fmt.Sprintf("core: indistinguishability violated at round %d for %s %d: %s",
		e.Round, e.What, e.Index, e.Detail)
}

// CheckIndist verifies the Indistinguishability Lemma (Lemma 5.2) between
// all and sub at every recorded round r:
//
//   - for every process p with UP(p,r) ⊆ S: state(p,r) and numtosses(p,r)
//     agree across the two runs (state equality is checked operationally as
//     history-digest equality, which is sufficient);
//   - for every register R with UP(R,r) ⊆ S: val(R,r) agrees, and for every
//     process p with UP(p,r) ⊆ S, p ∈ Pset(R,r) in the all-run iff it is in
//     the sub-run.
//
// It returns the first violation found, or nil.
func CheckIndist(all *AllRun, sub *SubRun) error {
	var inS PidSet
	for i := range all.Rounds {
		r := i + 1
		aRound, sRound := all.Rounds[i], sub.Rounds[i]

		inS.reset()
		for pid, up := range aRound.UPProc {
			if up.SubsetOf(sub.S) {
				inS.Add(pid)
			}
		}

		for pid := range aRound.UPProc {
			if !inS.Contains(pid) {
				continue
			}
			if a, s := aRound.StateKeys[pid], sRound.StateKeys[pid]; a != s {
				return &IndistError{Round: r, What: "process", Index: pid,
					Detail: fmt.Sprintf("state diverged:\n  all: %s\n  sub: %s", a, s)}
			}
			if a, s := aRound.NumTosses[pid], sRound.NumTosses[pid]; a != s {
				return &IndistError{Round: r, What: "process", Index: pid,
					Detail: fmt.Sprintf("numtosses %d vs %d", a, s)}
			}
		}

		for reg := range aRound.MemSnap {
			if err := checkRegister(all, sub, r, reg, inS); err != nil {
				return err
			}
		}
		for reg := range sRound.MemSnap {
			if _, ok := aRound.MemSnap[reg]; ok {
				continue // checked above
			}
			if err := checkRegister(all, sub, r, reg, inS); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkRegister checks register reg at the end of round r: if
// UP(reg, r) ⊆ S, its value must agree across the two runs, and so must
// the Pset membership of every process in inS.
func checkRegister(all *AllRun, sub *SubRun, r, reg int, inS PidSet) error {
	if !all.UPRegAt(reg, r).SubsetOf(sub.S) {
		return nil
	}
	// An untouched register is missing from its snapshot: it holds nil
	// and has an empty Pset, which the zero RegState is.
	av := all.Rounds[r-1].MemSnap[reg]
	sv := sub.Rounds[r-1].MemSnap[reg]
	if !shmem.ValuesEqual(av.Val, sv.Val) {
		return &IndistError{Round: r, What: "register", Index: reg,
			Detail: fmt.Sprintf("value %v vs %v", av.Val, sv.Val)}
	}
	// Both Psets are sorted: merge them, and report the smallest process
	// of inS that is in exactly one.
	a, s := av.Pset, sv.Pset
	for len(a) > 0 || len(s) > 0 {
		var pid int
		var inA bool
		switch {
		case len(s) == 0 || len(a) > 0 && a[0] < s[0]:
			pid, inA, a = a[0], true, a[1:]
		case len(a) == 0 || s[0] < a[0]:
			pid, s = s[0], s[1:]
		default: // in both
			a, s = a[1:], s[1:]
			continue
		}
		if inS.Contains(pid) {
			return &IndistError{Round: r, What: "register", Index: reg,
				Detail: fmt.Sprintf("Pset membership of p%d: %t vs %t", pid, inA, !inA)}
		}
	}
	return nil
}
