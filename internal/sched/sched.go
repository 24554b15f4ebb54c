// Package sched provides schedulers and a generic executor for running
// algorithms (package machine) against a simulated shared memory
// (package shmem).
//
// A Scheduler decides which process takes the next step; the executor
// drains each chosen process's local coin tosses (local steps are free in
// the shared-access cost model of the paper), performs its next
// shared-memory operation, and delivers the response. The package supplies
// round-robin, sequential, and seeded-random schedulers; the paper's
// adversary scheduler (Figure 2) lives in package core because it needs the
// round/phase structure and UP-set bookkeeping.
//
// Schedulers are stateful and owned by one execution: never share a
// Scheduler instance (in particular Random, which wraps an unlocked
// *rand.Rand) between concurrently running Executes — build one per
// execution with a derived seed instead.
package sched

import (
	"errors"
	"fmt"
	"math/rand"

	"jayanti98/internal/machine"
	"jayanti98/internal/shmem"
)

// Scheduler picks which live process performs the next shared-memory step.
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Next returns an element of live, which is non-empty and sorted by
	// pid. step counts shared-memory steps executed so far.
	Next(step int, live []int) int
}

// RoundRobin cycles through live processes in pid order, one shared-memory
// step each. Against the executor this produces the lockstep "rounds" that
// maximize contention.
type RoundRobin struct {
	idx int
}

// Name implements Scheduler.
func (*RoundRobin) Name() string { return "round-robin" }

// Next implements Scheduler.
func (s *RoundRobin) Next(_ int, live []int) int {
	s.idx++
	return live[(s.idx-1)%len(live)]
}

// Sequential runs each process to completion before starting the next, in
// pid order. It yields solo (contention-free) executions.
type Sequential struct{}

// Name implements Scheduler.
func (Sequential) Name() string { return "sequential" }

// Next implements Scheduler.
func (Sequential) Next(_ int, live []int) int { return live[0] }

// Random picks a uniformly random live process using a seeded source, so
// runs are reproducible.
//
// NOT safe for concurrent use: it wraps an unlocked *rand.Rand, so sharing
// one Random across goroutines — e.g. across the workers of a parallel
// sweep — is a data race and destroys reproducibility even where the race
// is benign. Give every worker its own Random, built with a seed derived
// from the work item's coordinates (see sweep.Seed / sweep.Derive).
type Random struct {
	rng *rand.Rand
}

// NewRandom returns a Random scheduler with the given seed. Two Randoms
// with the same seed produce the same pick sequence; concurrent executions
// must each build their own.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Scheduler.
func (*Random) Name() string { return "random" }

// Next implements Scheduler.
func (s *Random) Next(_ int, live []int) int {
	return live[s.rng.Intn(len(live))]
}

// Memory is the backend an execution applies shared-memory operations to.
// *shmem.Memory (the single-threaded simulator), *llsc.Memory (the same
// register file behind a lock) and the Blelloch–Wei *bwllsc.Memory all
// implement it, so Execute can drive machines against any of them. The
// schedule-exploration harness of package explore also clones and
// fingerprints its memory, so it takes the wider shmem.Backend instead.
type Memory interface {
	// Apply performs op on behalf of pid and returns the response.
	Apply(pid int, op shmem.Op) shmem.Response
}

// Result summarizes an execution.
type Result struct {
	// Returns maps each pid to its return value.
	Returns map[int]shmem.Value
	// Steps maps each pid to its shared-access step count t(p, R).
	Steps map[int]int
	// MaxSteps is max over pids of Steps — t(R).
	MaxSteps int
	// TotalSteps is the total number of shared-memory operations.
	TotalSteps int
}

// ErrBudgetExhausted reports that an execution hit its step budget before
// all processes terminated — for a wait-free algorithm, a bug.
var ErrBudgetExhausted = errors.New("sched: step budget exhausted before all processes terminated")

// Execute runs n processes of alg against mem under s, supplying coin
// tosses from ta, until every process terminates or budget shared-memory
// steps have been executed. A crashing machine aborts the run with its
// panic as the error.
func Execute(alg machine.Algorithm, n int, mem Memory, s Scheduler, ta machine.TossAssignment, budget int) (*Result, error) {
	ms := machine.StartAll(alg, n)
	defer machine.CloseAll(ms)

	res := &Result{
		Returns: make(map[int]shmem.Value, n),
		Steps:   make(map[int]int, n),
	}
	live := make([]int, 0, n)

	// advance drains pid's coin tosses and returns its next non-toss action.
	advance := func(m *machine.Machine) (machine.Action, error) {
		for {
			a := m.Peek()
			switch a.Kind {
			case machine.ActToss:
				m.DeliverToss(ta(m.ID(), m.NumTosses()))
			case machine.ActCrash:
				return a, fmt.Errorf("sched: process %d crashed: %w", m.ID(), m.Crashed())
			default:
				return a, nil
			}
		}
	}

	// Initial triage: some processes may return without any shared step.
	for _, m := range ms {
		a, err := advance(m)
		if err != nil {
			return nil, err
		}
		if a.Kind == machine.ActReturn {
			res.Returns[m.ID()] = a.Ret
			continue
		}
		live = append(live, m.ID())
	}

	for len(live) > 0 {
		if res.TotalSteps >= budget {
			return res, fmt.Errorf("%w (budget %d, %d processes live)", ErrBudgetExhausted, budget, len(live))
		}
		pid := s.Next(res.TotalSteps, live)
		m := ms[pid]
		a := m.Peek()
		if a.Kind != machine.ActOp {
			return nil, fmt.Errorf("sched: scheduler %s picked pid %d whose pending action is %v", s.Name(), pid, a.Kind)
		}
		m.DeliverOpResponse(mem.Apply(pid, a.Op))
		res.TotalSteps++
		res.Steps[pid]++
		if res.Steps[pid] > res.MaxSteps {
			res.MaxSteps = res.Steps[pid]
		}

		a, err := advance(m)
		if err != nil {
			return nil, err
		}
		if a.Kind == machine.ActReturn {
			res.Returns[pid] = a.Ret
			live = remove(live, pid)
		}
	}
	return res, nil
}

func remove(live []int, pid int) []int {
	out := live[:0]
	for _, p := range live {
		if p != pid {
			out = append(out, p)
		}
	}
	return out
}
