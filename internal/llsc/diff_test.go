package llsc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"jayanti98/internal/shmem"
)

// TestDifferentialAgainstSimulator checks the Handle surface: identical
// single-threaded operation sequences must produce identical responses on
// a bare shmem.Memory and through the handles of a Memory from this
// package, which delegates to one. Both share shmem's semantics, so this
// pins that each Handle method issues the right operation; the independent
// check of the semantics themselves is the Blelloch–Wei differential in
// package algos/bwllsc.
func TestDifferentialAgainstSimulator(t *testing.T) {
	const npids, nregs = 4, 5
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sim := shmem.New()
		con := New(npids)
		handles := make([]*Handle, npids)
		for pid := range handles {
			handles[pid] = con.Handle(pid)
		}
		for step := 0; step < 400; step++ {
			pid := rng.Intn(npids)
			reg := rng.Intn(nregs)
			arg := rng.Intn(100)
			switch rng.Intn(5) {
			case 0:
				a := sim.Apply(pid, shmem.Op{Kind: shmem.OpLL, Reg: reg})
				b := handles[pid].LL(reg)
				if !shmem.ValuesEqual(a.Val, b) {
					return false
				}
			case 1:
				a := sim.Apply(pid, shmem.Op{Kind: shmem.OpSC, Reg: reg, Arg: arg})
				ok, prev := handles[pid].SC(reg, arg)
				if a.OK != ok || !shmem.ValuesEqual(a.Val, prev) {
					return false
				}
			case 2:
				a := sim.Apply(pid, shmem.Op{Kind: shmem.OpValidate, Reg: reg})
				ok, cur := handles[pid].Validate(reg)
				if a.OK != ok || !shmem.ValuesEqual(a.Val, cur) {
					return false
				}
			case 3:
				a := sim.Apply(pid, shmem.Op{Kind: shmem.OpSwap, Reg: reg, Arg: arg})
				prev := handles[pid].Swap(reg, arg)
				if !shmem.ValuesEqual(a.Val, prev) {
					return false
				}
			case 4:
				src := rng.Intn(nregs)
				sim.Apply(pid, shmem.Op{Kind: shmem.OpMove, Src: src, Reg: reg})
				con.Apply(pid, shmem.Op{Kind: shmem.OpMove, Src: src, Reg: reg})
			}
		}
		// Final sweep: all registers and all links must agree.
		for reg := 0; reg < nregs; reg++ {
			if !shmem.ValuesEqual(sim.Read(reg), con.mem.Read(reg)) {
				return false
			}
			for pid := 0; pid < npids; pid++ {
				simOK := sim.Apply(pid, shmem.Op{Kind: shmem.OpValidate, Reg: reg}).OK
				conOK, _ := handles[pid].Validate(reg)
				if simOK != conOK {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
