// Package core implements the lower-bound machinery of Jayanti (PODC 1998):
// the round-based adversary scheduler of Figure 2, the UP-set update rules
// of Section 5.3, the (S,A)-run construction of Figure 3, the
// indistinguishability checker of Lemma 5.2, and the wakeup-problem
// specification checks behind Theorem 6.1.
//
// The adversary proceeds in rounds of five phases: (1) every live process
// performs local coin tosses until it terminates or is about to access
// shared memory; the rest are partitioned by their pending operation into
// the LL/validate group, the move group, the swap group, and the SC group;
// phases (2)–(5) then execute the groups in that order — LL/validate, swap
// and SC groups in pid order, the move group according to a secretive
// complete schedule (package moveplan). Executing a run this way yields,
// per round, everything Section 5 reasons about: who succeeded on which
// register, σ_r and f_r for the moves, end-of-round register and process
// states, and the UP sets.
package core

import (
	"errors"
	"fmt"

	"jayanti98/internal/machine"
	"jayanti98/internal/moveplan"
	"jayanti98/internal/shmem"
)

// tossGuard bounds coin tosses per process per round; a process exceeding
// it is assumed to be tossing forever (the run then has a non-terminating
// Phase 1, i.e. finitely many rounds, which the executor reports as an
// error because every algorithm we drive is supposed to be wait-free).
const tossGuard = 1 << 20

// ErrTooManyRounds reports that the run did not terminate within the round
// budget.
var ErrTooManyRounds = errors.New("core: round budget exhausted before all processes terminated")

// StepRecord is one shared-memory operation executed in a round.
type StepRecord struct {
	Pid  int
	Op   shmem.Op
	Resp shmem.Response
}

// String renders the step.
func (s StepRecord) String() string {
	return fmt.Sprintf("p%d: %v -> %v", s.Pid, s.Op, s.Resp)
}

// StateKey is state(p, r, Σ) in operational form: the components of
// machine.HistoryDigest — the event count, the running FNV-1a sum of the
// process's history, and whether history tracking was on. Equal keys mean
// equal histories, hence equal local states (Lemma 5.2). Comparing keys is
// two word compares; a key is rendered (String) only to report a
// divergence.
type StateKey struct {
	Events  int
	Sum     uint64
	Enabled bool
}

// String renders the key exactly as machine.HistoryKey does.
func (k StateKey) String() string {
	if !k.Enabled {
		return "disabled"
	}
	return fmt.Sprintf("ev%d:%016x", k.Events, k.Sum)
}

// Round captures everything that happened in one round of a run, plus
// end-of-round snapshots. Per-process fields are dense slices indexed by
// pid.
type Round struct {
	// R is the 1-based round number.
	R int
	// Returned lists processes that entered a termination state during
	// Phase 1 of this round, with their return values (nil if none did).
	Returned map[int]shmem.Value
	// Groups holds the pids of G1 (LL/validate), G2 (move), G3 (swap) and
	// G4 (SC), each in scheduling order.
	Groups [4][]int
	// MovePlan is f_r: the move operation of each process in G2 (nil if
	// G2 is empty).
	MovePlan moveplan.Plan
	// Sigma is σ_r, the secretive complete schedule used for G2.
	Sigma moveplan.Schedule
	// Steps are the shared-memory operations of phases 2–5, in execution
	// order.
	Steps []StepRecord
	// MemSnap is the end-of-round register snapshot.
	MemSnap map[int]shmem.RegState
	// StateKeys[p] is p's end-of-round history digest (the operational
	// form of state(p, r, Σ)).
	StateKeys []StateKey
	// NumTosses[p] is numtosses(p, r, Σ).
	NumTosses []int
	// UPProc[p] and UPReg are the UP sets at the end of this round. They
	// are populated only for (All,A)-runs in history mode; (S,A)-runs
	// reuse the all-run's sets. UPProc[p] is the very set of the round
	// before whenever UP(p, r) = UP(p, r−1).
	UPProc []PidSet
	UPReg  map[int]PidSet
}

// successfulSC returns the pid that performed a successful SC on reg in
// this round, or -1. (At most one SC on a register succeeds per round: the
// first success clears the Pset and every move or swap on the register in
// earlier phases clears it too.)
func (r *Round) successfulSC(reg int) int {
	for _, s := range r.Steps {
		if s.Op.Kind == shmem.OpSC && s.Op.Reg == reg && s.Resp.OK {
			return s.Pid
		}
	}
	return -1
}

// swapperBefore returns the pid of the last swap on reg among steps[:i],
// or -1. Swaps all execute in Phase 4, so for a swap at index i this is
// the swapper immediately before it on the same register.
func swapperBefore(steps []StepRecord, i, reg int) int {
	for i--; i >= 0; i-- {
		if s := steps[i]; s.Op.Kind == shmem.OpSwap && s.Op.Reg == reg {
			return s.Pid
		}
	}
	return -1
}

// movedInto reports whether any process performed a move into reg this
// round.
func (r *Round) movedInto(reg int) bool {
	for _, mv := range r.MovePlan {
		if mv.Dst == reg {
			return true
		}
	}
	return false
}

// AllRun is a complete (All,A)-run: the unique unextendable run permitted
// by the adversary scheduler under toss assignment A.
type AllRun struct {
	// Alg is the algorithm that was run.
	Alg machine.Algorithm
	// N is the number of processes.
	N int
	// TA is the toss assignment A.
	TA machine.TossAssignment
	// Rounds holds one record per executed round.
	Rounds []*Round
	// Returns maps each terminated pid to its return value.
	Returns map[int]shmem.Value
	// Steps[p] is p's total shared-access step count.
	Steps []int
	// FirstStepRound[p] is the round of p's first shared-memory step (0 if
	// it never stepped; rounds are numbered from 1).
	FirstStepRound []int
	// NoHistory records that the run was executed without history digests,
	// end-of-round snapshots, or per-round UP sets (pure measurement mode);
	// such a run cannot be compared with CheckIndist or used with RunSub.
	NoHistory bool

	// curUPProc[p] and curUPReg are the latest UP sets; in history mode
	// they are also recorded per round.
	curUPProc []PidSet
	curUPReg  map[int]PidSet
	// up is updateUP's scratch, reused every round.
	up upScratch
	// lemma51Err records the first incremental Lemma 5.1 violation.
	lemma51Err error
}

// Terminated reports whether every process terminated.
func (a *AllRun) Terminated() bool { return len(a.Returns) == a.N }

// MaxSteps returns t(R): the maximum shared-access step count over all
// processes, and the pid attaining it.
func (a *AllRun) MaxSteps() (steps, pid int) {
	pid = -1
	for p := 0; p < a.N; p++ {
		if s := a.Steps[p]; s > steps {
			steps, pid = s, p
		}
	}
	return steps, pid
}

// UPProcAt returns UP(p, r) for r ≥ 0 (r = 0 is the initial {p}).
// Per-round UP sets require history mode; in NoHistory mode only the final
// sets (FinalUPProc) exist.
func (a *AllRun) UPProcAt(pid, r int) PidSet {
	if r == 0 {
		return NewPidSet(pid)
	}
	return a.Rounds[r-1].UPProc[pid]
}

// UPRegAt returns UP(R, r) for r ≥ 0 (r = 0 is the empty set).
func (a *AllRun) UPRegAt(reg, r int) PidSet {
	if r == 0 {
		return NewPidSet()
	}
	if s, ok := a.Rounds[r-1].UPReg[reg]; ok {
		return s
	}
	return NewPidSet()
}

// FinalUPProc returns UP(p, r_final): p's knowledge set at the end of the
// run. Available in both history and NoHistory modes.
func (a *AllRun) FinalUPProc(pid int) PidSet {
	return a.curUPProc[pid]
}

// Config tunes a run.
type Config struct {
	// NoHistory disables per-process history digests and end-of-round
	// register snapshots. Measurement sweeps over large n use it: digesting
	// every delivered value costs as much as the run itself. Runs intended
	// for RunSub/CheckIndist must keep history on.
	NoHistory bool
}

// maxRounds bounds the number of rounds of an n-process run.
func maxRounds(n int) int { return 8*n + 64 }

// RunAll executes the (All,A)-run of alg for n processes under toss
// assignment ta, recording per-round history and UP sets. It returns an
// error if a process crashes or the round budget is exhausted (wait-free
// algorithms must terminate within 8n + 64 rounds).
func RunAll(alg machine.Algorithm, n int, ta machine.TossAssignment, cfg Config) (*AllRun, error) {
	mem := shmem.New()
	ms := machine.StartAll(alg, n)
	defer machine.CloseAll(ms)

	run := &AllRun{
		Alg:            alg,
		N:              n,
		TA:             ta,
		Returns:        make(map[int]shmem.Value, n),
		Steps:          make([]int, n),
		FirstStepRound: make([]int, n),
		NoHistory:      cfg.NoHistory,
		curUPProc:      make([]PidSet, n),
	}
	for pid := range run.curUPProc {
		run.curUPProc[pid] = NewPidSet(pid) // UP(p, 0) = {p}
	}
	if cfg.NoHistory {
		for _, m := range ms {
			m.DisableHistory()
		}
	}

	// live, and in NoHistory mode the Steps and Groups of every round, are
	// buffers reused from round to round.
	var live []int
	var reuse Round
	for r := 1; ; r++ {
		if r > maxRounds(n) {
			return run, fmt.Errorf("%w: %s with n=%d after %d rounds", ErrTooManyRounds, alg.Name(), n, r-1)
		}
		round := &Round{R: r}
		if cfg.NoHistory {
			round.Steps = reuse.Steps[:0]
			for g := range round.Groups {
				round.Groups[g] = reuse.Groups[g][:0]
			}
		}

		// Phase 1: drain coin tosses; collect returns; partition the rest.
		var err error
		live, err = phase1(ms, nil, ta, round, run.Returns, live[:0])
		if err != nil {
			return run, err
		}
		if len(live) > 0 {
			partition(ms, live, round)
			if len(round.MovePlan) > 0 {
				round.Sigma = moveplan.Secretive(round.MovePlan)
				// The move group executes in σ_r order.
				round.Groups[1] = []int(round.Sigma)
			}
			execRound(mem, ms, round, run.Steps) // phases 2–5
			for _, pid := range live {
				if run.FirstStepRound[pid] == 0 {
					run.FirstStepRound[pid] = r
				}
			}
		}

		// End-of-round snapshots and UP updates. A round with no live
		// processes is still recorded when Phase 1 produced returns, so
		// that per-round histories cover every return.
		if len(live) > 0 || len(round.Returned) > 0 {
			if !cfg.NoHistory {
				snapshot(mem, ms, round)
			}
			updateUP(run, round)
			if cfg.NoHistory {
				// Measurement mode: drop the per-round payloads once the UP
				// update has consumed them (memory would otherwise grow as
				// rounds × n), keeping their buffers for the next round.
				reuse.Steps, reuse.Groups = round.Steps, round.Groups
				round.Steps = nil
				round.Groups = [4][]int{}
				round.MovePlan = nil
				round.Sigma = nil
			}
			run.Rounds = append(run.Rounds, round)
		}
		if len(live) == 0 {
			// All processes terminated; rounds r+1, r+2, ... are empty.
			break
		}
	}
	return run, nil
}

// snapshot records the end-of-round register snapshot, history digests
// and toss counts.
func snapshot(mem *shmem.Memory, ms []*machine.Machine, round *Round) {
	round.MemSnap = mem.Snapshot()
	round.StateKeys = make([]StateKey, len(ms))
	round.NumTosses = make([]int, len(ms))
	for _, m := range ms {
		k := &round.StateKeys[m.ID()]
		k.Events, k.Sum, k.Enabled = m.HistoryDigest()
		round.NumTosses[m.ID()] = m.NumTosses()
	}
}

// phase1 drains tosses for every machine whose pid passes the filter
// (nil filter = all machines), recording returns. It appends the pids that
// are live (not yet terminated) to live, in increasing order.
func phase1(ms []*machine.Machine, only *PidSet, ta machine.TossAssignment, round *Round, returns map[int]shmem.Value, live []int) ([]int, error) {
	for _, m := range ms {
		pid := m.ID()
		if only != nil && !only.Contains(pid) {
			continue
		}
		if _, done := returns[pid]; done {
			continue
		}
		tosses := 0
	drain:
		for {
			switch a := m.Peek(); a.Kind {
			case machine.ActToss:
				if tosses++; tosses > tossGuard {
					return nil, fmt.Errorf("core: process %d exceeded %d coin tosses in round %d phase 1", pid, tossGuard, round.R)
				}
				m.DeliverToss(ta(pid, m.NumTosses()))
			case machine.ActCrash:
				return nil, fmt.Errorf("core: process %d crashed in round %d: %w", pid, round.R, m.Crashed())
			case machine.ActReturn:
				if round.Returned == nil {
					round.Returned = make(map[int]shmem.Value)
				}
				round.Returned[pid] = a.Ret
				returns[pid] = a.Ret
				break drain
			case machine.ActOp:
				live = append(live, pid)
				break drain
			}
		}
	}
	return live, nil
}

// partition splits the live pids into G1..G4 by pending operation kind and
// fills the round's move plan. The caller orders the move group. Groups
// without storage of their own are carved out of one array.
func partition(ms []*machine.Machine, live []int, round *Round) {
	g := &round.Groups
	if cap(g[0])+cap(g[1])+cap(g[2])+cap(g[3]) == 0 {
		var sizes [4]int
		for _, pid := range live {
			if i := groupOf(ms[pid].Peek().Op.Kind); i >= 0 {
				sizes[i]++
			}
		}
		buf := make([]int, len(live))
		for i, n := range sizes {
			g[i], buf = buf[:0:n], buf[n:]
		}
	}
	for _, pid := range live {
		op := ms[pid].Peek().Op
		i := groupOf(op.Kind)
		if i < 0 {
			continue
		}
		g[i] = append(g[i], pid)
		if op.Kind == shmem.OpMove {
			if round.MovePlan == nil {
				round.MovePlan = make(moveplan.Plan)
			}
			round.MovePlan[pid] = moveplan.Move{Src: op.Src, Dst: op.Reg}
		}
	}
}

// groupOf returns the group (0..3 for G1..G4) that executes operations of
// kind k, or -1.
func groupOf(k shmem.OpKind) int {
	switch k {
	case shmem.OpLL, shmem.OpValidate:
		return 0
	case shmem.OpMove:
		return 1
	case shmem.OpSwap:
		return 2
	case shmem.OpSC:
		return 3
	}
	return -1
}

// execRound performs phases 2–5: each group's processes execute their one
// pending operation in the group's scheduling order.
func execRound(mem *shmem.Memory, ms []*machine.Machine, round *Round, steps []int) {
	if cap(round.Steps) == 0 {
		n := 0
		for _, group := range round.Groups {
			n += len(group)
		}
		round.Steps = make([]StepRecord, 0, n)
	}
	for _, group := range round.Groups {
		for _, pid := range group {
			m := ms[pid]
			op := m.Peek().Op
			resp := mem.Apply(pid, op)
			round.Steps = append(round.Steps, StepRecord{Pid: pid, Op: op, Resp: resp})
			steps[pid]++
			m.DeliverOpResponse(resp)
		}
	}
}
