package llsc

import (
	"bytes"
	"math/rand"
	"testing"

	"jayanti98/internal/shmem"
)

// randomOp draws one operation over nregs registers.
func randomOp(rng *rand.Rand, nregs int) shmem.Op {
	op := shmem.Op{Reg: rng.Intn(nregs)}
	switch rng.Intn(5) {
	case 0:
		op.Kind = shmem.OpLL
	case 1:
		op.Kind, op.Arg = shmem.OpSC, rng.Intn(100)
	case 2:
		op.Kind = shmem.OpValidate
	case 3:
		op.Kind, op.Arg = shmem.OpSwap, rng.Intn(100)
	default:
		op.Kind, op.Src = shmem.OpMove, rng.Intn(nregs)
	}
	return op
}

// TestCloneIndependence: a clone starts with the origin's fingerprint and
// step counts, answers every operation sequence as the origin does, and
// operations on either never change the other.
func TestCloneIndependence(t *testing.T) {
	const npids, nregs = 3, 4
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := New(npids)
		for i := 0; i < 30; i++ {
			m.Apply(rng.Intn(npids), randomOp(rng, nregs))
		}
		c := m.Clone()
		if !bytes.Equal(m.AppendFingerprint(nil), c.AppendFingerprint(nil)) || m.TotalSteps() != c.TotalSteps() {
			t.Fatalf("seed %d: clone starts at %q, origin at %q", seed, c.Fingerprint(), m.Fingerprint())
		}
		// Step the clone alone, then the origin along the same suffix.
		before := m.AppendFingerprint(nil)
		suffix := make([]shmem.Op, 30)
		pids := make([]int, len(suffix))
		resps := make([]shmem.Response, len(suffix))
		for i := range suffix {
			suffix[i], pids[i] = randomOp(rng, nregs), rng.Intn(npids)
			resps[i] = c.Apply(pids[i], suffix[i])
		}
		if !bytes.Equal(before, m.AppendFingerprint(nil)) {
			t.Fatalf("seed %d: stepping the clone changed the origin", seed)
		}
		for i, op := range suffix {
			if r := m.Apply(pids[i], op); r.OK != resps[i].OK || !shmem.ValuesEqual(r.Val, resps[i].Val) {
				t.Fatalf("seed %d step %d %v: origin %v, clone %v", seed, i, op, r, resps[i])
			}
		}
		if !bytes.Equal(m.AppendFingerprint(nil), c.AppendFingerprint(nil)) || m.TotalSteps() != c.TotalSteps() {
			t.Fatalf("seed %d: after the same suffix, clone %q, origin %q", seed, c.Fingerprint(), m.Fingerprint())
		}
	}
}
