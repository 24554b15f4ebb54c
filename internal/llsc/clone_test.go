package llsc

import (
	"bytes"
	"math/rand"
	"strings"
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

// counters are the register file's running totals a clone must carry.
type counters struct {
	total int64
	bits  int
}

func countersOf(b shmem.Backend) counters {
	m, ok := b.(*shmem.Memory)
	if !ok {
		m = b.(*Memory).mem
	}
	return counters{m.TotalSteps(), m.MaxRegisterBits()}
}

// TestCloneIndependence: a clone starts with the origin's fingerprint,
// step counters and bit tracking, answers
// every operation sequence as the origin does, and operations on either
// never change the other. It runs on a bare shmem.Memory with bit tracking
// on, and on a Memory, whose Clone delegates to shmem's.
func TestCloneIndependence(t *testing.T) {
	const npids, nregs = 3, 4
	for _, tc := range []struct {
		name    string
		new     func() shmem.Backend
		tracked bool // bit tracking is on
	}{
		{"llsc", func() shmem.Backend { return New(npids) }, false},
		{"shmem", func() shmem.Backend { return shmem.New(shmem.WithBitTracking()) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				m := tc.new()
				for i := 0; i < 30; i++ {
					m.Apply(rng.Intn(npids), randomOp(rng, nregs))
				}
				c := m.Clone()
				if !bytes.Equal(m.AppendFingerprint(nil), c.AppendFingerprint(nil)) || countersOf(m) != countersOf(c) {
					t.Fatalf("seed %d: clone starts at %x %+v, origin at %x %+v",
						seed, c.AppendFingerprint(nil), countersOf(c), m.AppendFingerprint(nil), countersOf(m))
				}
				// Step the clone alone, then the origin along the same
				// suffix. The suffix ends by reading a register no prefix
				// touches and writing a value wider than any before it
				// (the bit tracking).
				before, beforeCounters := m.AppendFingerprint(nil), countersOf(m)
				suffix := make([]shmem.Op, 30)
				pids := make([]int, len(suffix))
				for i := range suffix {
					suffix[i], pids[i] = randomOp(rng, nregs), rng.Intn(npids)
				}
				suffix = append(suffix,
					shmem.Op{Kind: shmem.OpValidate, Reg: 7},
					shmem.Op{Kind: shmem.OpSwap, Reg: 0, Arg: strings.Repeat("w", 16)})
				pids = append(pids, 0, 0)
				resps := make([]shmem.Response, len(suffix))
				for i, op := range suffix {
					resps[i] = c.Apply(pids[i], op)
				}
				if got := resps[len(suffix)-2].Val; got != nil {
					t.Fatalf("seed %d: clone read untouched R7 as %v, want nil", seed, got)
				}
				if !bytes.Equal(before, m.AppendFingerprint(nil)) || countersOf(m) != beforeCounters {
					t.Fatalf("seed %d: stepping the clone changed the origin", seed)
				}
				if got := countersOf(c); got.total != beforeCounters.total+int64(len(suffix)) || tc.tracked && got.bits <= beforeCounters.bits {
					t.Fatalf("seed %d: clone counters %+v did not move on from the origin's %+v", seed, got, beforeCounters)
				}
				for i, op := range suffix {
					if r := m.Apply(pids[i], op); r.OK != resps[i].OK || !shmem.ValuesEqual(r.Val, resps[i].Val) {
						t.Fatalf("seed %d step %d %v: origin %v, clone %v", seed, i, op, r, resps[i])
					}
				}
				if !bytes.Equal(m.AppendFingerprint(nil), c.AppendFingerprint(nil)) || countersOf(m) != countersOf(c) {
					t.Fatalf("seed %d: after the same suffix, clone %x %+v, origin %x %+v",
						seed, c.AppendFingerprint(nil), countersOf(c), m.AppendFingerprint(nil), countersOf(m))
				}
			}
		})
	}
}
