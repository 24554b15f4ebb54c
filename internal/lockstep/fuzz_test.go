package lockstep

import (
	"testing"
)

// mix64 is splitmix64's finalizer — a cheap, well-distributed way to derive
// toss outcomes from (seed, pid, j) without any shared state.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// FuzzVMEquivalence is the differential fuzz target: the fuzzer picks a
// compiled algorithm — a wakeup algorithm, or a universal construction
// running two fetch&increment or queue operations per process — a system
// size, a toss seed and an arbitrary schedule, and the lockstep harness
// asserts the two engines agree on every observable at every step. Any
// counterexample the fuzzer ever finds is a real compiler or VM bug,
// minimized to a replayable schedule.
func FuzzVMEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint64(0), []byte{0, 1, 0, 1, 0, 1, 0, 1})
	f.Add(uint8(1), uint8(1), uint64(7), []byte{2, 0, 1, 2, 2, 0, 1, 1, 0, 2})
	f.Add(uint8(2), uint8(2), uint64(42), []byte{0, 0, 0, 3, 2, 1})
	f.Add(uint8(3), uint8(1), uint64(9), []byte{1, 1, 1, 1, 0, 2, 0, 2, 0, 1, 2})
	f.Fuzz(func(t *testing.T, algIdx, nRaw uint8, tossSeed uint64, sched []byte) {
		n := 2 + int(nRaw)%3 // n ∈ {2, 3, 4}
		algs := append(constructions(), fuzzWorkloads(t, n)...)
		alg := algs[int(algIdx)%len(algs)]
		if len(sched) > 512 {
			sched = sched[:512]
		}
		schedule := make([]int, len(sched))
		for i, b := range sched {
			schedule[i] = int(b) % n
		}
		toss := func(pid, j int) int64 {
			return int64(mix64(tossSeed^uint64(pid)<<32^uint64(j)) & 1)
		}
		if _, err := Run(alg, n, schedule, toss); err != nil {
			t.Fatal(err)
		}
	})
}
