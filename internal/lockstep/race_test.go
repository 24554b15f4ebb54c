package lockstep

import (
	"context"
	"fmt"
	"testing"

	"jayanti98/internal/machine"
	"jayanti98/internal/sched"
	"jayanti98/internal/shmem"
	"jayanti98/internal/sweep"
)

// TestChunksSharedAcrossGoroutines steps many VM machines concurrently
// through the sweep worker pool, every fleet executing the same four
// package-level compiled chunks. Under -race this proves the chunks are
// safely shared read-only: an Exec's mutable state is private, and nothing
// in the VM hot path writes to the chunk.
func TestChunksSharedAcrossGoroutines(t *testing.T) {
	// One algorithm instance per construction, shared by every task, so
	// all workers hit the same *vmachine.Chunk pointers.
	algs := constructions()
	const tasks = 64
	const n = 6
	_, err := sweep.MapCtx(context.Background(), 8, tasks, func(i int) (int, error) {
		alg := algs[i%len(algs)]
		ms := machine.StartAll(alg, n)
		defer machine.CloseAll(ms)
		if got := ms[0].EngineName(); got != "vm" {
			return 0, fmt.Errorf("task %d: engine %q, want vm", i, got)
		}
		mem := shmem.New()
		toss := func(pid, j int) int64 { return int64(mix64(uint64(i)^uint64(pid)^uint64(j)<<16) & 1) }
		steps := 0
		for round := 0; ; round++ {
			if round > 10_000 {
				return 0, fmt.Errorf("task %d: fleet did not terminate", i)
			}
			live := 0
			for pid := 0; pid < n; pid++ {
				m := ms[pid]
				if m.Terminated() || m.Crashed() != nil {
					continue
				}
				live++
				switch a := m.Peek(); a.Kind {
				case machine.ActToss:
					m.DeliverToss(toss(pid, m.NumTosses()))
				case machine.ActOp:
					m.DeliverOpResponse(mem.Apply(pid, a.Op))
					steps++
				}
			}
			if live == 0 {
				return steps, nil
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentLockstepPairs runs full lockstep pairs concurrently — two
// engines, two memories per worker, all sharing chunks — under the sched
// executor's round-robin order reproduced as an explicit schedule.
func TestConcurrentLockstepPairs(t *testing.T) {
	algs := constructions()
	const tasks = 32
	_, err := sweep.MapCtx(context.Background(), 8, tasks, func(i int) (int, error) {
		alg := algs[i%len(algs)]
		n := 2 + i%3
		schedule := make([]int, 120)
		rr := &sched.RoundRobin{}
		live := make([]int, n)
		for p := range live {
			live[p] = p
		}
		for s := range schedule {
			schedule[s] = rr.Next(s, live)
		}
		steps, err := Run(alg, n, schedule, bitToss(uint64(i)))
		if err != nil {
			return 0, fmt.Errorf("task %d: %w", i, err)
		}
		return steps, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
