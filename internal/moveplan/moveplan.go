// Package moveplan implements Section 4 of the paper: scheduling move
// operations so that they reveal as little information as possible.
//
// Given (S, f) — a set S of processes each holding one pending
// move(R_src, R_dst) operation described by f — a complete schedule is an
// ordering of S. After executing a schedule σ, each register R ends up
// holding the original value of source(R, σ, (S,f)), and the chain of
// processes whose moves carried that value is movers(R, σ, (S,f)).
//
// A schedule is *secretive* when every register's movers chain has at most
// two processes (Lemma 4.1 shows one always exists; Figure 1 constructs it).
// Lemma 4.2 is the payoff: scheduling only a subset S' ⊇ movers(R, σ) moves
// the same value into R, which is what lets the (S,A)-run of Section 5
// mimic the (All,A)-run with few processes.
package moveplan

import (
	"fmt"
	"sort"
)

// Move is one pending move operation: value(Src) is to be copied into Dst.
type Move struct {
	Src int
	Dst int
}

// String renders the move in the paper's notation.
func (m Move) String() string { return fmt.Sprintf("move(R%d, R%d)", m.Src, m.Dst) }

// Plan is the pair (S, f): the processes with pending moves and their
// operations. The zero Plan has no moves.
type Plan map[int]Move

// Pids returns the processes of the plan in increasing order.
func (p Plan) Pids() []int {
	pids := make([]int, 0, len(p))
	for pid := range p {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	return pids
}

// Schedule is an ordering of (a subset of) the plan's processes.
type Schedule []int

// Restrict returns σ|A: the subsequence of s containing exactly the
// processes in keep.
func (s Schedule) Restrict(keep map[int]bool) Schedule {
	out := make(Schedule, 0, len(s))
	for _, pid := range s {
		if keep[pid] {
			out = append(out, pid)
		}
	}
	return out
}

// Tracker computes source(R, σ, (S,f)) and movers(R, σ, (S,f)) incrementally
// as a schedule is applied, following the inductive definition of Section 4.
type Tracker struct {
	plan   Plan
	source map[int]int   // destination register → original source register
	movers map[int][]int // destination register → chain of movers
}

// NewTracker starts tracking the empty schedule λ for the given plan:
// source(R, λ) = R and movers(R, λ) = λ for every register.
func NewTracker(plan Plan) *Tracker {
	return &Tracker{
		plan:   plan,
		source: make(map[int]int),
		movers: make(map[int][]int),
	}
}

// Apply extends the tracked schedule with process pid (σ := σ·p).
// It panics if pid has no move in the plan — that is a caller bug.
//
// A self-move move(R, R) is tracked as a no-op: the register's value is
// unchanged, so no information is carried and neither source nor movers
// change. (The paper's inductive definition implicitly assumes src ≠ dst;
// taken literally it would grow an unbounded movers chain for repeated
// self-moves on one register even though a later reader learns nothing,
// falsifying Lemma 4.1. Treating self-moves as value-preserving no-ops
// restores the lemma and matches the operational semantics exactly.)
func (t *Tracker) Apply(pid int) {
	mv, ok := t.plan[pid]
	if !ok {
		panic(fmt.Sprintf("moveplan: process %d has no move in the plan", pid))
	}
	if mv.Src == mv.Dst {
		return
	}
	srcOfSrc := t.Source(mv.Src)
	moversOfSrc := t.Movers(mv.Src)
	chain := make([]int, 0, len(moversOfSrc)+1)
	chain = append(chain, moversOfSrc...)
	chain = append(chain, pid)
	t.source[mv.Dst] = srcOfSrc
	t.movers[mv.Dst] = chain
}

// Source returns source(R, σ) for the schedule applied so far.
func (t *Tracker) Source(reg int) int {
	if s, ok := t.source[reg]; ok {
		return s
	}
	return reg
}

// Movers returns movers(R, σ) for the schedule applied so far. The returned
// slice must not be modified.
func (t *Tracker) Movers(reg int) []int {
	return t.movers[reg]
}

// Eval applies an entire schedule and returns the tracker.
func Eval(plan Plan, sigma Schedule) *Tracker {
	t := NewTracker(plan)
	for _, pid := range sigma {
		t.Apply(pid)
	}
	return t
}

// IsComplete reports whether σ is a complete schedule with respect to the
// plan: every process of the plan appears exactly once.
func IsComplete(plan Plan, sigma Schedule) bool {
	if len(sigma) != len(plan) {
		return false
	}
	seen := make(map[int]bool, len(sigma))
	for _, pid := range sigma {
		if _, ok := plan[pid]; !ok || seen[pid] {
			return false
		}
		seen[pid] = true
	}
	return true
}

// IsSecretive reports whether σ is a secretive complete schedule: complete,
// and every register's movers chain has at most two processes.
func IsSecretive(plan Plan, sigma Schedule) bool {
	if !IsComplete(plan, sigma) {
		return false
	}
	t := Eval(plan, sigma)
	for _, mv := range plan {
		if len(t.Movers(mv.Dst)) > 2 {
			return false
		}
	}
	return true
}

// Secretive constructs a secretive complete schedule for the plan using the
// two-stage algorithm of Figure 1. Stage one repeatedly finds an unscheduled
// process p whose source register's movers chain is still empty, then
// schedules every unscheduled process with p's destination register, p last;
// stage two appends the remaining processes in pid order. The result always
// satisfies IsSecretive (Lemma 4.1).
func Secretive(plan Plan) Schedule {
	t := NewTracker(plan)
	pids := plan.Pids()
	sigma := make(Schedule, 0, len(plan))
	remaining := make(map[int]bool, len(plan))
	byDst := make(map[int][]int)
	for _, pid := range pids {
		mv := plan[pid]
		if mv.Src == mv.Dst {
			// Self-moves first: they carry no value anywhere (see
			// Tracker.Apply), so their position is irrelevant to sources
			// and movers; front-loading keeps them out of Figure 1's
			// group bookkeeping.
			t.Apply(pid)
			sigma = append(sigma, pid)
			continue
		}
		remaining[pid] = true
		byDst[mv.Dst] = append(byDst[mv.Dst], pid) // ascending pid order
	}

	// Stage 1 (Figure 1): pick the smallest unscheduled process whose
	// source register is still fresh (empty movers) and schedule every
	// unscheduled process sharing its destination, the trigger last.
	// Freshness only ever decreases as moves are scheduled, so a single
	// ascending pass visits exactly the triggers the Figure 1 loop would
	// pick, in the same order, in near-linear time.
	for _, p := range pids {
		if !remaining[p] || len(t.Movers(plan[p].Src)) != 0 {
			continue
		}
		for _, q := range byDst[plan[p].Dst] {
			if q == p || !remaining[q] {
				continue
			}
			t.Apply(q)
			sigma = append(sigma, q)
			delete(remaining, q)
		}
		t.Apply(p) // the fresh-source trigger goes last in its group
		sigma = append(sigma, p)
		delete(remaining, p)
	}

	// Stage 2: remaining processes in pid order.
	for _, pid := range pids {
		if remaining[pid] {
			t.Apply(pid)
			sigma = append(sigma, pid)
		}
	}
	return sigma
}

// NaiveChain returns the plan's processes in increasing pid order. For the
// chain plan of Section 4's opening example — p_i performing
// move(R_i, R_{i+1}) — this schedule builds a movers chain of length n,
// revealing all n processes through one register. It is the baseline that
// motivates secretive schedules (experiment E9).
func NaiveChain(plan Plan) Schedule {
	return Schedule(plan.Pids())
}

// MaxMovers returns the length of the longest movers chain over the
// destination registers of the plan after executing σ.
func MaxMovers(plan Plan, sigma Schedule) int {
	t := Eval(plan, sigma)
	longest := 0
	for _, mv := range plan {
		if l := len(t.Movers(mv.Dst)); l > longest {
			longest = l
		}
	}
	return longest
}

// CheckLemma42 verifies Lemma 4.2 for one register: given a secretive
// complete schedule σ and any S' ⊆ S containing every process in
// movers(reg, σ), executing only σ|S' moves the same original value into
// reg, i.e. source(reg, σ|S') = source(reg, σ). t is Eval(plan, σ), which
// a caller checking many registers evaluates once. It returns an error
// describing the violation, or nil.
func CheckLemma42(plan Plan, sigma Schedule, t *Tracker, reg int, sub map[int]bool) error {
	for _, pid := range t.Movers(reg) {
		if !sub[pid] {
			return fmt.Errorf("moveplan: subset does not contain mover %d of R%d", pid, reg)
		}
	}
	restricted := sigma.Restrict(sub)
	subPlan := make(Plan, len(sub))
	for pid := range sub {
		if mv, ok := plan[pid]; ok {
			subPlan[pid] = mv
		}
	}
	tSub := Eval(subPlan, restricted)
	if got, want := tSub.Source(reg), t.Source(reg); got != want {
		return fmt.Errorf("moveplan: source(R%d, σ|S') = R%d, want R%d", reg, got, want)
	}
	return nil
}
