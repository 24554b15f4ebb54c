package bwllsc_test

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"jayanti98/internal/algos/bwllsc"
	"jayanti98/internal/llsc"
	"jayanti98/internal/shmem"
)

// TestSemantics walks the LL/SC contract by hand on the pointer-based
// implementation: a successful SC requires a link, succeeds exactly once
// per installed version, and breaks every other process's link to that
// version; Swap and Move break all links; a self-move is a no-op.
func TestSemantics(t *testing.T) {
	m := bwllsc.New(3)
	ll := func(pid, reg int) shmem.Value { return m.Apply(pid, shmem.Op{Kind: shmem.OpLL, Reg: reg}).Val }
	sc := func(pid, reg int, v shmem.Value) (bool, shmem.Value) {
		r := m.Apply(pid, shmem.Op{Kind: shmem.OpSC, Reg: reg, Arg: v})
		return r.OK, r.Val
	}
	validate := func(pid, reg int) (bool, shmem.Value) {
		r := m.Apply(pid, shmem.Op{Kind: shmem.OpValidate, Reg: reg})
		return r.OK, r.Val
	}
	swap := func(pid, reg int, v shmem.Value) shmem.Value {
		return m.Apply(pid, shmem.Op{Kind: shmem.OpSwap, Reg: reg, Arg: v}).Val
	}
	move := func(pid, src, dst int) { m.Apply(pid, shmem.Op{Kind: shmem.OpMove, Src: src, Reg: dst}) }

	if ok, _ := sc(0, 0, 9); ok {
		t.Fatal("SC without LL succeeded")
	}
	if v := ll(0, 0); v != nil {
		t.Fatalf("initial LL = %v, want nil", v)
	}
	if v := ll(1, 0); v != nil {
		t.Fatalf("initial LL = %v, want nil", v)
	}
	if ok, prev := sc(0, 0, 10); !ok || prev != nil {
		t.Fatalf("linked SC = (%v, %v), want (true, nil)", ok, prev)
	}
	// p0's own SC consumed the version: a second SC from p0 must fail, and
	// p1's link to the old version is broken.
	if ok, prev := sc(0, 0, 11); ok || prev != 10 {
		t.Fatalf("repeat SC = (%v, %v), want (false, 10)", ok, prev)
	}
	if ok, cur := validate(1, 0); ok || cur != 10 {
		t.Fatalf("stale Validate = (%v, %v), want (false, 10)", ok, cur)
	}
	if ok, _ := sc(1, 0, 12); ok {
		t.Fatal("stale SC succeeded")
	}

	// Swap breaks links.
	ll(0, 0)
	if prev := swap(1, 0, 20); prev != 10 {
		t.Fatalf("Swap prev = %v, want 10", prev)
	}
	if ok, _ := sc(0, 0, 13); ok {
		t.Fatal("SC after Swap succeeded")
	}

	// Move copies the source value and breaks destination links.
	ll(0, 1)
	move(1, 0, 1)
	if ok, cur := validate(0, 1); ok || cur != 20 {
		t.Fatalf("Validate after Move = (%v, %v), want (false, 20)", ok, cur)
	}

	// Self-move: value and links untouched.
	ll(0, 1)
	move(0, 1, 1)
	if ok, cur := validate(0, 1); !ok || cur != 20 {
		t.Fatalf("Validate after self-move = (%v, %v), want (true, 20)", ok, cur)
	}
}

// references are the native register files every differential test runs
// against: the bare shmem.Memory, the one implementation of the paper's §3
// semantics, and llsc.Memory, the same register file behind its lock. This
// package is written independently of shmem, so agreement is a check of
// both.
var references = []struct {
	name string
	new  func(n int) shmem.Backend
}{
	{"shmem", func(int) shmem.Backend { return shmem.New() }},
	{"llsc", func(n int) shmem.Backend { return llsc.New(n) }},
}

// TestDifferentialAgainstNative is the core backend claim, op by op: an
// identical operation sequence applied to a pset-based reference and to
// this package's pointer-based Memory yields identical responses and —
// after every single operation — a byte-identical fingerprint. The fingerprint comparison is what makes the two
// backends interchangeable inside the exploration harness's memoization.
func TestDifferentialAgainstNative(t *testing.T) {
	for _, ref := range references {
		t.Run(ref.name, func(t *testing.T) { testDifferentialAgainstNative(t, ref.new) })
	}
}

func testDifferentialAgainstNative(t *testing.T, newRef func(int) shmem.Backend) {
	const npids, nregs = 4, 5
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := newRef(npids)
		b := bwllsc.New(npids)
		for step := 0; step < 400; step++ {
			pid := rng.Intn(npids)
			reg := rng.Intn(nregs)
			op := shmem.Op{Reg: reg}
			switch rng.Intn(5) {
			case 0:
				op.Kind = shmem.OpLL
			case 1:
				op.Kind, op.Arg = shmem.OpSC, rng.Intn(100)
			case 2:
				op.Kind = shmem.OpValidate
			case 3:
				op.Kind, op.Arg = shmem.OpSwap, rng.Intn(100)
			case 4:
				op.Kind, op.Src = shmem.OpMove, rng.Intn(nregs)
			}
			ra, rb := a.Apply(pid, op), b.Apply(pid, op)
			if ra.OK != rb.OK || !shmem.ValuesEqual(ra.Val, rb.Val) {
				t.Logf("seed %d step %d %v: native %v, bw %v", seed, step, op, ra, rb)
				return false
			}
			if !bytes.Equal(a.AppendFingerprint(nil), b.AppendFingerprint(nil)) {
				t.Logf("seed %d step %d %v: fingerprints diverge:\n  native %x\n  bw     %x",
					seed, step, op, a.AppendFingerprint(nil), b.AppendFingerprint(nil))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFingerprintAllocationParity pins the subtle half of byte-identity:
// the fingerprint only covers *touched* registers, so the two backends must
// allocate on exactly the same operations. Validate on a fresh register
// allocates it; a self-move does not.
func TestFingerprintAllocationParity(t *testing.T) {
	for _, ref := range references {
		t.Run(ref.name, func(t *testing.T) { testFingerprintAllocationParity(t, ref.new(2)) })
	}
}

func testFingerprintAllocationParity(t *testing.T, a shmem.Backend) {
	b := bwllsc.New(2)
	check := func(label string) {
		t.Helper()
		if !bytes.Equal(a.AppendFingerprint(nil), b.AppendFingerprint(nil)) {
			t.Fatalf("%s: fingerprints diverge:\n  native %x\n  bw     %x", label, a.AppendFingerprint(nil), b.AppendFingerprint(nil))
		}
	}
	check("empty")
	a.Apply(0, shmem.Op{Kind: shmem.OpValidate, Reg: 7})
	b.Apply(0, shmem.Op{Kind: shmem.OpValidate, Reg: 7})
	check("after Validate on fresh register")
	a.Apply(1, shmem.Op{Kind: shmem.OpMove, Src: 2, Reg: 2})
	b.Apply(1, shmem.Op{Kind: shmem.OpMove, Src: 2, Reg: 2})
	check("after self-move on fresh register")
}

// TestBackendInterface pins the memories to the shared Backend surface the
// exploration harness selects between (explore.ParseBackend).
func TestBackendInterface(t *testing.T) {
	var _ shmem.Backend = shmem.New()
	var _ shmem.Backend = llsc.New(2)
	var _ shmem.Backend = bwllsc.New(2)
}

// TestCloneKeepsLinks: cloning remaps node identities, yet in the clone an
// announcement equals the head exactly when it did in the origin. The
// hand-built state has a stale LL (p1, overtaken by p0's SC), a live one
// (p2), and a process that never linked (p3); after cloning, both memories
// must answer SCs exactly as a cloned native backend does, and SCs on the
// clone must not consume the origin's links.
func TestCloneKeepsLinks(t *testing.T) {
	for _, ref := range references {
		t.Run(ref.name, func(t *testing.T) { testCloneKeepsLinks(t, ref.new(4)) })
	}
}

func testCloneKeepsLinks(t *testing.T, native shmem.Backend) {
	build := func(m shmem.Backend) {
		m.Apply(0, shmem.Op{Kind: shmem.OpLL, Reg: 0})
		m.Apply(1, shmem.Op{Kind: shmem.OpLL, Reg: 0})
		m.Apply(0, shmem.Op{Kind: shmem.OpSC, Reg: 0, Arg: "a"})
		m.Apply(2, shmem.Op{Kind: shmem.OpLL, Reg: 0})
		m.Apply(1, shmem.Op{Kind: shmem.OpLL, Reg: 1})
	}
	bw := bwllsc.New(4)
	build(native)
	build(bw)
	nc, bc := native.Clone(), bw.Clone()
	if !bytes.Equal(bc.AppendFingerprint(nil), native.AppendFingerprint(nil)) {
		t.Fatalf("bw clone %x, native %x", bc.AppendFingerprint(nil), native.AppendFingerprint(nil))
	}
	originFP := bw.AppendFingerprint(nil)
	scs := []struct{ pid, reg int }{{1, 0}, {3, 0}, {2, 0}, {2, 0}, {1, 1}, {0, 1}}
	for _, sc := range scs {
		op := shmem.Op{Kind: shmem.OpSC, Reg: sc.reg, Arg: sc.pid}
		rn, rb := nc.Apply(sc.pid, op), bc.Apply(sc.pid, op)
		if rn.OK != rb.OK || !shmem.ValuesEqual(rn.Val, rb.Val) {
			t.Fatalf("SC by p%d on R%d: native clone %v, bw clone %v", sc.pid, sc.reg, rn, rb)
		}
		if !bytes.Equal(nc.AppendFingerprint(nil), bc.AppendFingerprint(nil)) {
			t.Fatalf("after SC by p%d on R%d: native clone %x, bw clone %x", sc.pid, sc.reg, nc.AppendFingerprint(nil), bc.AppendFingerprint(nil))
		}
	}
	if !bytes.Equal(originFP, bw.AppendFingerprint(nil)) {
		t.Fatal("SCs on the clone changed the origin")
	}
	// p2's link in the origin survived the clone's successful SC.
	if r := bw.Apply(2, shmem.Op{Kind: shmem.OpSC, Reg: 0, Arg: "b"}); !r.OK {
		t.Fatalf("origin SC by p2 = %v, want success", r)
	}
}

// TestCloneDifferential: from random states, a Blelloch–Wei clone and a
// native clone answer random suffixes identically, byte for byte.
func TestCloneDifferential(t *testing.T) {
	for _, ref := range references {
		t.Run(ref.name, func(t *testing.T) { testCloneDifferential(t, ref.new) })
	}
}

func testCloneDifferential(t *testing.T, newRef func(int) shmem.Backend) {
	const npids, nregs = 4, 4
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := newRef(npids), bwllsc.New(npids)
		op := func() shmem.Op {
			op := shmem.Op{Reg: rng.Intn(nregs)}
			switch rng.Intn(5) {
			case 0, 1:
				op.Kind = shmem.OpLL
			case 2:
				op.Kind, op.Arg = shmem.OpSC, rng.Intn(100)
			case 3:
				op.Kind, op.Arg = shmem.OpSwap, rng.Intn(100)
			default:
				op.Kind, op.Src = shmem.OpMove, rng.Intn(nregs)
			}
			return op
		}
		for i := 0; i < 40; i++ {
			pid, o := rng.Intn(npids), op()
			a.Apply(pid, o)
			b.Apply(pid, o)
		}
		ac, bc := a.Clone(), b.Clone()
		origin := b.AppendFingerprint(nil)
		for i := 0; i < 40; i++ {
			pid, o := rng.Intn(npids), op()
			if i%2 == 1 {
				o.Kind, o.Arg = shmem.OpSC, i
			}
			ra, rb := ac.Apply(pid, o), bc.Apply(pid, o)
			if ra.OK != rb.OK || !shmem.ValuesEqual(ra.Val, rb.Val) {
				t.Fatalf("seed %d step %d %v: native clone %v, bw clone %v", seed, i, o, ra, rb)
			}
			if !bytes.Equal(ac.AppendFingerprint(nil), bc.AppendFingerprint(nil)) {
				t.Fatalf("seed %d step %d: fingerprints diverge:\n  native %x\n  bw     %x", seed, i, ac.AppendFingerprint(nil), bc.AppendFingerprint(nil))
			}
		}
		if !bytes.Equal(origin, b.AppendFingerprint(nil)) || !bytes.Equal(origin, a.AppendFingerprint(nil)) {
			t.Fatalf("seed %d: stepping the clones moved an origin", seed)
		}
	}
}
