package counting

import (
	"fmt"
	"sync"
	"testing"

	"jayanti98/internal/core"
	"jayanti98/internal/llsc"
	"jayanti98/internal/machine"
	"jayanti98/internal/sched"
	"jayanti98/internal/shmem"
)

func TestWidthRoundsUpToPowerOfTwo(t *testing.T) {
	cases := map[int]int{1: 2, 2: 2, 3: 4, 5: 8, 8: 8, 9: 16}
	for in, want := range cases {
		if got := New(in, 0).Width(); got != want {
			t.Errorf("New(%d).Width() = %d, want %d", in, got, want)
		}
	}
}

func TestDepthAndRegisters(t *testing.T) {
	// Bitonic[w] has log w (log w + 1)/2 layers and w/2 balancers per
	// layer, so w·log w·(log w+1)/4 balancers total.
	for _, w := range []int{2, 4, 8, 16, 32} {
		nw := New(w, 0)
		lg := 0
		for v := w; v > 1; v /= 2 {
			lg++
		}
		wantDepth := lg * (lg + 1) / 2
		if nw.Depth() != wantDepth {
			t.Errorf("w=%d: Depth = %d, want %d", w, nw.Depth(), wantDepth)
		}
		wantBalancers := w * wantDepth / 2
		if nw.Balancers() != wantBalancers {
			t.Errorf("w=%d: Balancers = %d, want %d", w, nw.Balancers(), wantBalancers)
		}
	}
}

// drainSequential pushes m tokens one at a time and returns their values.
func drainSequential(t *testing.T, w, m int) []int {
	t.Helper()
	mem := llsc.New(1)
	nw := New(w, 0)
	h := mem.Handle(0)
	out := make([]int, m)
	for i := range out {
		out[i] = nw.Next(h)
	}
	return out
}

func TestSequentialTokensCountPerfectly(t *testing.T) {
	// With tokens entering one at a time the network is a perfect counter:
	// the i-th token must draw exactly i.
	for _, w := range []int{2, 4, 8, 16} {
		for _, m := range []int{1, w, 3*w + 1} {
			got := drainSequential(t, w, m)
			for i, v := range got {
				if v != i {
					t.Fatalf("w=%d m=%d: token %d drew %d (sequence %v)", w, m, i, v, got)
				}
			}
		}
	}
}

func TestStepPropertyAtQuiescence(t *testing.T) {
	// After m concurrent tokens complete, the issued values must be
	// exactly {0..m−1} — the counting property — for every m, including
	// m not a multiple of the width.
	for _, w := range []int{2, 4, 8} {
		for _, m := range []int{1, 3, w, 2*w + 1, 4 * w} {
			mem := llsc.New(m)
			nw := New(w, 0)
			values := make([]int, m)
			var wg sync.WaitGroup
			wg.Add(m)
			for pid := 0; pid < m; pid++ {
				go func(pid int) {
					defer wg.Done()
					values[pid] = nw.Next(mem.Handle(pid))
				}(pid)
			}
			wg.Wait()
			seen := make(map[int]bool, m)
			for pid, v := range values {
				if v < 0 || v >= m || seen[v] {
					t.Fatalf("w=%d m=%d: p%d drew %d (all %v)", w, m, pid, v, values)
				}
				seen[v] = true
			}
		}
	}
}

func TestAdversaryScheduleCountsExactly(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 32} {
		nw := New(n, 0)
		alg := machine.New("counting", func(e *machine.Env) shmem.Value {
			return nw.Next(e)
		})
		run, err := core.RunAll(alg, n, machine.ZeroTosses, core.Config{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		seen := make(map[shmem.Value]bool)
		for pid, v := range run.Returns {
			if seen[v] {
				t.Fatalf("n=%d: duplicate value %v (p%d)", n, v, pid)
			}
			seen[v] = true
		}
		for i := 0; i < n; i++ {
			if !seen[i] {
				t.Fatalf("n=%d: missing value %d in %v", n, i, run.Returns)
			}
		}
		if err := core.CheckLemma51(run); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestRandomSchedulesCountExactly(t *testing.T) {
	const n = 6
	for seed := int64(0); seed < 8; seed++ {
		nw := New(n, 0)
		alg := machine.New("counting", func(e *machine.Env) shmem.Value {
			return nw.Next(e)
		})
		mem := shmem.New()
		res, err := sched.Execute(alg, n, mem, sched.NewRandom(seed), machine.ZeroTosses, 1_000_000)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		seen := make(map[shmem.Value]bool)
		for _, v := range res.Returns {
			seen[v] = true
		}
		for i := 0; i < n; i++ {
			if !seen[i] {
				t.Fatalf("seed=%d: missing value %d in %v", seed, i, res.Returns)
			}
		}
	}
}

func TestSmallRegistersOnly(t *testing.T) {
	// The whole point: balancers and counters stay O(log n) bits, in
	// contrast to the unbounded log registers of the universal
	// constructions.
	const n = 16
	nw := New(n, 0)
	alg := machine.New("counting", func(e *machine.Env) shmem.Value {
		return nw.Next(e)
	})
	mem := shmem.New(shmem.WithBitTracking())
	if _, err := sched.Execute(alg, n, mem, &sched.RoundRobin{}, machine.ZeroTosses, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if bits := mem.MaxRegisterBits(); bits > 64 {
		t.Fatalf("counting network used a %d-bit register value", bits)
	}
}

func TestTraverseWrapsEntryWire(t *testing.T) {
	mem := llsc.New(1)
	nw := New(4, 0)
	h := mem.Handle(0)
	if out := nw.Traverse(h, 7); out < 0 || out >= 4 {
		t.Fatalf("Traverse out of range: %d", out)
	}
	if out := nw.Traverse(h, -3); out < 0 || out >= 4 {
		t.Fatalf("negative entry mishandled: %d", out)
	}
}

func TestBalancerAlternates(t *testing.T) {
	mem := llsc.New(1)
	nw := New(2, 0) // a single balancer plus two counters
	h := mem.Handle(0)
	var outs []int
	for i := 0; i < 6; i++ {
		outs = append(outs, nw.Traverse(h, 0))
	}
	want := []int{0, 1, 0, 1, 0, 1}
	if fmt.Sprint(outs) != fmt.Sprint(want) {
		t.Fatalf("balancer outputs %v, want %v", outs, want)
	}
}
