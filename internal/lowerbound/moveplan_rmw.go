package lowerbound

import (
	"fmt"

	"jayanti98/internal/moveplan"
	"jayanti98/internal/objtype"
	"jayanti98/internal/shmem"
	"jayanti98/internal/sweep"
)

// MoveScheduleResult compares the naive and secretive schedules on one
// move workload (E9, the motivation of Section 4): the longest movers chain
// is exactly how many processes a later reader of one register can infer
// took a step.
type MoveScheduleResult struct {
	Workload        string
	N               int
	NaiveMaxMovers  int
	SecretiveMax    int
	SecretiveLegal  bool // complete and ≤ 2 movers everywhere (Lemma 4.1)
	Lemma42Verified bool // restriction preserves sources (Lemma 4.2)
}

// MoveScheduleComparison builds the Section 4 chain workload — p_i performs
// move(R_i, R_{i+1}) — plus a random workload, and reports the information
// leakage of the naive pid-order schedule versus the secretive schedule.
//
// Safe for concurrent use: the random workload comes from a function-local
// RNG seeded by the caller, so no state is shared between calls. Parallel
// sweeps must NOT hoist the RNG out and share it (an unlocked *rand.Rand
// is a data race — see sched.Random); they pass each grid point its own
// seed, derived from the point's coordinates via sweep.Seed.
func MoveScheduleComparison(n int, seed int64) []MoveScheduleResult {
	chain := make(moveplan.Plan, n)
	for i := 0; i < n; i++ {
		chain[i] = moveplan.Move{Src: i, Dst: i + 1}
	}
	rng := sweep.NewRand(seed)
	random := make(moveplan.Plan, n)
	for i := 0; i < n; i++ {
		random[i] = moveplan.Move{Src: rng.Intn(n + 1), Dst: rng.Intn(n + 1)}
	}
	out := make([]MoveScheduleResult, 0, 2)
	for _, w := range []struct {
		name string
		plan moveplan.Plan
	}{{"chain", chain}, {"random", random}} {
		sigma := moveplan.Secretive(w.plan)
		res := MoveScheduleResult{
			Workload:       w.name,
			N:              n,
			NaiveMaxMovers: moveplan.MaxMovers(w.plan, moveplan.NaiveChain(w.plan)),
			SecretiveMax:   moveplan.MaxMovers(w.plan, sigma),
			SecretiveLegal: moveplan.IsSecretive(w.plan, sigma),
		}
		res.Lemma42Verified = verifyLemma42(w.plan, sigma)
		out = append(out, res)
	}
	return out
}

func verifyLemma42(plan moveplan.Plan, sigma moveplan.Schedule) bool {
	tr := moveplan.Eval(plan, sigma)
	for _, mv := range plan {
		sub := make(map[int]bool)
		for _, pid := range tr.Movers(mv.Dst) {
			sub[pid] = true
		}
		if err := moveplan.CheckLemma42(plan, sigma, tr, mv.Dst, sub); err != nil {
			return false
		}
	}
	return true
}

// RMWResult demonstrates the Section 7 observation (E10): with an
// unbounded-register read-modify-write operation, ANY object has a
// wait-free implementation with unit shared-access time per operation —
// which is why the Ω(log n) bound cannot survive adding arbitrary RMW.
type RMWResult struct {
	Type       string
	N          int
	Ops        int
	StepsPerOp float64 // always exactly 1
	Correct    bool
}

// RMWUnitTime implements the given type over a single RMW register:
// process p performs op as ONE shared-memory access. It runs n processes,
// one op each in pid order, and verifies responses against the sequential
// specification.
func RMWUnitTime(typ objtype.Type, n int, op func(n, pid int) objtype.Op) (RMWResult, error) {
	mem := shmem.New()
	const reg = 0
	responses := make([]objtype.Value, n)
	for pid := 0; pid < n; pid++ {
		o := op(n, pid)
		cur := pid // capture for the closure below
		mem.RMW(pid, reg, func(v shmem.Value) shmem.Value {
			state := v
			if state == nil {
				state = typ.Init(n)
			}
			next, resp := typ.Apply(state, o)
			responses[cur] = resp
			return next
		})
	}
	// Validate against a pure sequential replay.
	ops := make([]objtype.Op, n)
	for pid := 0; pid < n; pid++ {
		ops[pid] = op(n, pid)
	}
	_, want := objtype.Replay(typ, n, ops)
	res := RMWResult{Type: typ.Name(), N: n, Ops: n, StepsPerOp: 1, Correct: true}
	for pid := 0; pid < n; pid++ {
		if !shmem.ValuesEqual(responses[pid], want[pid]) {
			res.Correct = false
			return res, fmt.Errorf("lowerbound: RMW response %d = %v, want %v", pid, responses[pid], want[pid])
		}
		if mem.Steps(pid) != 1 {
			res.Correct = false
			return res, fmt.Errorf("lowerbound: RMW process %d used %d steps, want 1", pid, mem.Steps(pid))
		}
	}
	return res, nil
}
