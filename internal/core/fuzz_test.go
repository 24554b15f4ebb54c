package core

import (
	"fmt"
	"math/rand"
	"testing"

	"jayanti98/internal/machine"
	"jayanti98/internal/shmem"
)

// The fuzz targets in this file are native Go fuzz tests over a single
// int64 seed: the seed drives randomAlgorithm below, so every mutated
// input is a new random program + toss assignment + system size. Under
// plain `go test` only the f.Add seeds and the committed corpus
// (testdata/fuzz/Fuzz*) run, as subtests; `make fuzz-short` runs each
// target's mutation engine for ~10s.

// randomAlgorithm builds a deterministic but arbitrary-looking program:
// each process performs `steps` operations over a small register file,
// choosing the operation kind, registers and written values from a seeded
// PRNG *mixed with everything it has observed so far* (acc). The
// data-dependence is the point — if the (S,A)-run delivered even one
// different response to a process, its subsequent operations would diverge
// and the indistinguishability check would catch it.
func randomAlgorithm(seed int64, steps, nregs int) machine.Algorithm {
	name := fmt.Sprintf("fuzz(seed=%d,steps=%d,regs=%d)", seed, steps, nregs)
	return machine.New(name, func(e *machine.Env) shmem.Value {
		rng := rand.New(rand.NewSource(seed ^ int64(e.ID())*2654435761))
		acc := int64(e.ID() + 1)
		mix := func(v shmem.Value) {
			if x, ok := v.(int64); ok {
				acc = acc*1099511628211 + x
			} else {
				acc = acc*1099511628211 + 14695981039346656037>>1
			}
		}
		reg := func() int {
			r := int((rng.Int63() ^ acc) % int64(nregs))
			if r < 0 {
				r = -r
			}
			return r
		}
		for i := 0; i < steps; i++ {
			switch (rng.Int63() ^ acc) % 13 {
			case 0, 1, 2:
				mix(e.LL(reg()))
			case 3, 4:
				ok, v := e.SC(reg(), acc%1000)
				if ok {
					acc++
				}
				mix(v)
			case 5, 6:
				ok, v := e.Validate(reg())
				if ok {
					acc += 7
				}
				mix(v)
			case 7, 8:
				mix(e.Swap(reg(), acc%1000))
			case 9, 10:
				e.Move(reg(), reg())
			case 11:
				acc = acc*31 + e.Toss()
			default:
				mix(e.LL(reg()))
			}
			if acc < 0 {
				acc = -acc
			}
		}
		return acc % 1000
	})
}

// addSeeds registers a spread of starting seeds; the committed corpus
// under testdata/fuzz extends it.
func addSeeds(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 7, 13, 42, 1998, -5, 1 << 40} {
		f.Add(seed)
	}
}

// FuzzLemma51AndDeterminism runs random programs under the adversary and
// checks the 4^r UP bound plus run determinism. The rerun is in NoHistory
// mode, so it is also a differential check of the in-place UP buffers
// against the history-mode sets: same returns, step counts, final UP sets
// and Lemma 5.1 verdict.
func FuzzLemma51AndDeterminism(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		alg := randomAlgorithm(seed, 3+rng.Intn(8), 1+rng.Intn(5))
		ta := func(pid, j int) int64 { return (int64(pid)*7 + int64(j)*13 + seed) % 5 }
		run1, err := RunAll(alg, n, ta, Config{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		lemma1 := CheckLemma51(run1)
		if lemma1 != nil {
			t.Fatalf("seed %d: %v", seed, lemma1)
		}
		run2, err := RunAll(alg, n, ta, Config{NoHistory: true})
		if err != nil {
			t.Fatalf("seed %d: rerun: %v", seed, err)
		}
		if lemma2 := CheckLemma51(run2); fmt.Sprint(lemma1) != fmt.Sprint(lemma2) {
			t.Fatalf("seed %d: Lemma 5.1 verdicts differ: %v vs %v", seed, lemma1, lemma2)
		}
		// Determinism: identical returns, step counts and knowledge.
		for pid := 0; pid < n; pid++ {
			if !shmem.ValuesEqual(run1.Returns[pid], run2.Returns[pid]) {
				t.Fatalf("seed %d: p%d returns differ: %v vs %v", seed, pid, run1.Returns[pid], run2.Returns[pid])
			}
			if run1.Steps[pid] != run2.Steps[pid] {
				t.Fatalf("seed %d: p%d step counts differ: %d vs %d", seed, pid, run1.Steps[pid], run2.Steps[pid])
			}
			if a, b := run1.FinalUPProc(pid), run2.FinalUPProc(pid); !sameSet(a, b) {
				t.Fatalf("seed %d: final UP(p%d) differs: %v vs %v", seed, pid, a, b)
			}
		}
	})
}

// FuzzIndistinguishability is the big one: for random programs, random
// toss assignments, and S = UP(p, final) for every process p — plus one
// union of two processes' knowledge — the (S,A)-run must be
// indistinguishable from the (All,A)-run. This exercises all twelve UP
// rules (the programs issue every op kind, including moves scheduled by
// secretive schedules) and both run constructions.
func FuzzIndistinguishability(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		alg := randomAlgorithm(seed, 3+rng.Intn(7), 1+rng.Intn(4))
		ta := func(pid, j int) int64 { return (int64(pid) + int64(j)*3 + seed) % 4 }
		run, err := RunAll(alg, n, ta, Config{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		check := func(label string, s PidSet) {
			sub, err := RunSub(run, s)
			if err != nil {
				t.Fatalf("seed %d %s (S=%v): %v", seed, label, s, err)
			}
			if err := CheckIndist(run, sub); err != nil {
				t.Fatalf("seed %d %s (S=%v): %v", seed, label, s, err)
			}
		}
		for pid := 0; pid < n; pid++ {
			check(fmt.Sprintf("p%d", pid), run.FinalUPProc(pid).Clone())
		}
		// A union of two processes' knowledge: larger, non-singleton-derived
		// subsets exercise S_r transitions differently.
		a, b := rng.Intn(n), rng.Intn(n)
		u := run.FinalUPProc(a).Clone()
		u.UnionWith(run.FinalUPProc(b))
		check(fmt.Sprintf("union(p%d,p%d)", a, b), u)
	})
}

// FuzzUPMonotone checks that UP sets never shrink round over round and
// always contain their own process.
func FuzzUPMonotone(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		alg := randomAlgorithm(seed, 3+rng.Intn(6), 1+rng.Intn(4))
		run, err := RunAll(alg, n, machine.ZeroTosses, Config{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for pid := 0; pid < n; pid++ {
			prev := NewPidSet(pid)
			for r := 1; r <= len(run.Rounds); r++ {
				cur := run.UPProcAt(pid, r)
				if !prev.SubsetOf(cur) {
					t.Fatalf("seed %d: UP(p%d) shrank at round %d", seed, pid, r)
				}
				if !cur.Contains(pid) {
					t.Fatalf("seed %d: UP(p%d) lost p%d at round %d", seed, pid, pid, r)
				}
				prev = cur
			}
		}
	})
}
