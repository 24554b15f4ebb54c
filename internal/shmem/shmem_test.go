package shmem

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestLLReturnsValueAndLinks(t *testing.T) {
	m := New()
	resp := m.Apply(0, Op{Kind: OpLL, Reg: 5})
	if !resp.OK || resp.Val != nil {
		t.Fatalf("LL on fresh register: got %v, want (true, nil)", resp)
	}
	if !inPset(m, 5, 0) {
		t.Fatal("LL did not add caller to Pset")
	}
}

// inPset reports whether pid is in register reg's Pset, without
// allocating the register.
func inPset(m *Memory, reg, pid int) bool {
	r, ok := m.regs[reg]
	return ok && r.pset.Contains(pid)
}

func TestSCSucceedsAfterLL(t *testing.T) {
	m := New()
	m.Apply(1, Op{Kind: OpLL, Reg: 0})
	resp := m.Apply(1, Op{Kind: OpSC, Reg: 0, Arg: "x"})
	if !resp.OK {
		t.Fatalf("SC after LL should succeed, got %v", resp)
	}
	if resp.Val != nil {
		t.Fatalf("SC must return previous value nil, got %v", resp.Val)
	}
	if got := m.Read(0); got != "x" {
		t.Fatalf("register value = %v, want x", got)
	}
	if inPset(m, 0, 1) {
		t.Fatal("successful SC must clear the Pset")
	}
}

func TestSCFailsWithoutLL(t *testing.T) {
	m := New()
	m.Apply(0, Op{Kind: OpSwap, Reg: 0, Arg: 7})
	resp := m.Apply(1, Op{Kind: OpSC, Reg: 0, Arg: 9})
	if resp.OK {
		t.Fatal("SC without preceding LL must fail")
	}
	if resp.Val != 7 {
		t.Fatalf("failed SC must still return current value 7, got %v", resp.Val)
	}
	if got := m.Read(0); got != 7 {
		t.Fatalf("failed SC must not change value, got %v", got)
	}
}

func TestSCInvalidatedByInterveningSC(t *testing.T) {
	m := New()
	m.Apply(0, Op{Kind: OpLL, Reg: 3})
	m.Apply(1, Op{Kind: OpLL, Reg: 3})
	if resp := m.Apply(1, Op{Kind: OpSC, Reg: 3, Arg: "q"}); !resp.OK {
		t.Fatalf("first SC should succeed, got %v", resp)
	}
	resp := m.Apply(0, Op{Kind: OpSC, Reg: 3, Arg: "p"})
	if resp.OK {
		t.Fatal("SC after intervening successful SC must fail")
	}
	if resp.Val != "q" {
		t.Fatalf("failed SC response value = %v, want q", resp.Val)
	}
}

func TestSCInvalidatedBySwap(t *testing.T) {
	m := New()
	m.Apply(0, Op{Kind: OpLL, Reg: 2})
	m.Apply(1, Op{Kind: OpSwap, Reg: 2, Arg: 42})
	if resp := m.Apply(0, Op{Kind: OpSC, Reg: 2, Arg: 1}); resp.OK {
		t.Fatal("swap must invalidate outstanding links")
	}
}

func TestSCInvalidatedByMove(t *testing.T) {
	m := New()
	m.Apply(0, Op{Kind: OpSwap, Reg: 9, Arg: "src"})
	m.Apply(1, Op{Kind: OpLL, Reg: 4})
	m.Apply(2, Op{Kind: OpMove, Src: 9, Reg: 4})
	if resp := m.Apply(1, Op{Kind: OpSC, Reg: 4, Arg: 1}); resp.OK {
		t.Fatal("move into register must invalidate outstanding links")
	}
	if got := m.Read(4); got != "src" {
		t.Fatalf("move did not copy value: got %v, want src", got)
	}
}

func TestSelfMoveIsCompleteNoOp(t *testing.T) {
	m := New()
	m.Apply(0, Op{Kind: OpSwap, Reg: 3, Arg: "v"})
	m.Apply(1, Op{Kind: OpLL, Reg: 3})
	resp := m.Apply(2, Op{Kind: OpMove, Src: 3, Reg: 3})
	if !resp.OK {
		t.Fatal("self-move must still acknowledge")
	}
	if got := m.Read(3); got != "v" {
		t.Fatalf("self-move changed value: %v", got)
	}
	// The register is its own source, whose state a move leaves unchanged:
	// outstanding links must survive.
	if ok, _ := m.Apply(1, Op{Kind: OpSC, Reg: 3, Arg: "w"}).OK, false; !ok {
		t.Fatal("self-move must not invalidate links")
	}
	if got := m.Steps(2); got != 1 {
		t.Fatalf("self-move must still cost one step, got %d", got)
	}
}

func TestMoveLeavesSourceUnchanged(t *testing.T) {
	m := New()
	m.Apply(0, Op{Kind: OpSwap, Reg: 1, Arg: "v"})
	m.Apply(0, Op{Kind: OpLL, Reg: 1})
	m.Apply(2, Op{Kind: OpMove, Src: 1, Reg: 8})
	if got := m.Read(1); got != "v" {
		t.Fatalf("move changed source value: %v", got)
	}
	if !inPset(m, 1, 0) {
		t.Fatal("move must not clear the source register's Pset")
	}
	if resp := m.Apply(0, Op{Kind: OpSC, Reg: 1, Arg: "w"}); !resp.OK {
		t.Fatal("SC on untouched source must still succeed after a move out of it")
	}
}

func TestValidateReportsLinkAndValue(t *testing.T) {
	m := New()
	m.Apply(0, Op{Kind: OpSwap, Reg: 0, Arg: "a"})
	resp := m.Apply(1, Op{Kind: OpValidate, Reg: 0})
	if resp.OK {
		t.Fatal("validate without LL must report false")
	}
	if resp.Val != "a" {
		t.Fatalf("validate must return current value, got %v", resp.Val)
	}
	m.Apply(1, Op{Kind: OpLL, Reg: 0})
	if resp := m.Apply(1, Op{Kind: OpValidate, Reg: 0}); !resp.OK {
		t.Fatal("validate after LL must report true")
	}
	m.Apply(2, Op{Kind: OpSwap, Reg: 0, Arg: "b"})
	resp = m.Apply(1, Op{Kind: OpValidate, Reg: 0})
	if resp.OK || resp.Val != "b" {
		t.Fatalf("validate after swap: got %v, want (false, b)", resp)
	}
}

func TestValidateDoesNotPerturbRegister(t *testing.T) {
	m := New()
	m.Apply(0, Op{Kind: OpLL, Reg: 0})
	m.Apply(1, Op{Kind: OpValidate, Reg: 0})
	// pid 1's validate must not create a link for pid 1.
	if resp := m.Apply(1, Op{Kind: OpSC, Reg: 0, Arg: 1}); resp.OK {
		t.Fatal("validate must not link the caller")
	}
	// ... and must not break pid 0's link.
	if resp := m.Apply(0, Op{Kind: OpSC, Reg: 0, Arg: 2}); !resp.OK {
		t.Fatal("validate by another process must not break an existing link")
	}
}

func TestSwapReturnsPrevious(t *testing.T) {
	m := New()
	if resp := m.Apply(0, Op{Kind: OpSwap, Reg: 0, Arg: 1}); resp.Val != nil {
		t.Fatalf("first swap must return nil, got %v", resp.Val)
	}
	if resp := m.Apply(1, Op{Kind: OpSwap, Reg: 0, Arg: 2}); resp.Val != 1 {
		t.Fatalf("second swap must return 1, got %v", resp.Val)
	}
}

func TestStepCounting(t *testing.T) {
	m := New()
	ops := []Op{
		{Kind: OpLL, Reg: 0},
		{Kind: OpSC, Reg: 0, Arg: 1},
		{Kind: OpValidate, Reg: 0},
	}
	for _, op := range ops {
		m.Apply(2, op)
	}
	m.Apply(5, Op{Kind: OpSwap, Reg: 1, Arg: 0})
	if got := m.Steps(2); got != 3 {
		t.Fatalf("Steps(2) = %d, want 3", got)
	}
	if got := m.Steps(5); got != 1 {
		t.Fatalf("Steps(5) = %d, want 1", got)
	}
	if got := m.TotalSteps(); got != 4 {
		t.Fatalf("TotalSteps = %d, want 4", got)
	}
	// Read and Snapshot are checker APIs and must not charge steps.
	m.Read(0)
	m.Snapshot()
	if got := m.TotalSteps(); got != 4 {
		t.Fatalf("checker APIs charged steps: TotalSteps = %d, want 4", got)
	}
}

func TestSnapshotSortedPsets(t *testing.T) {
	m := New()
	for _, pid := range []int{5, 1, 3} {
		m.Apply(pid, Op{Kind: OpLL, Reg: 0})
	}
	snap := m.Snapshot()
	want := []int{1, 3, 5}
	if !reflect.DeepEqual(snap[0].Pset, want) {
		t.Fatalf("snapshot Pset = %v, want %v", snap[0].Pset, want)
	}
}

// TestFingerprintAndClone pins the string fingerprint's format, and that a
// clone starts in its origin's state, links included, and then moves on
// independently. The randomized clone checks run in package llsc
// (TestCloneIndependence) and against the Blelloch–Wei backend in package
// algos/bwllsc.
func TestFingerprintAndClone(t *testing.T) {
	m := New()
	m.Apply(1, Op{Kind: OpLL, Reg: 2})
	m.Apply(0, Op{Kind: OpSwap, Reg: 0, Arg: "x"})
	m.Apply(3, Op{Kind: OpLL, Reg: 2})
	wantSnap := map[int]RegState{0: {Val: "x", Pset: []int{}}, 2: {Pset: []int{1, 3}}}
	if got := m.Snapshot(); !reflect.DeepEqual(got, wantSnap) {
		t.Fatalf("Snapshot = %v, want %v", got, wantSnap)
	}
	want := m.AppendFingerprint(nil)
	c := m.Clone()
	if got := c.AppendFingerprint(nil); !bytes.Equal(got, want) {
		t.Fatalf("clone starts at %x, origin at %x", got, want)
	}
	if r := c.Apply(1, Op{Kind: OpSC, Reg: 2, Arg: "y"}); !r.OK {
		t.Fatal("the clone lost p1's link")
	}
	if got := m.AppendFingerprint(nil); !bytes.Equal(got, want) {
		t.Fatalf("stepping the clone changed the origin to %x", got)
	}
	if r := m.Apply(3, Op{Kind: OpSC, Reg: 2, Arg: "z"}); !r.OK {
		t.Fatal("the origin lost p3's link")
	}
}

func TestRMWUnitStep(t *testing.T) {
	m := New()
	prev := m.RMW(0, 0, func(v Value) Value {
		if v == nil {
			return 1
		}
		return v.(int) + 1
	})
	if prev != nil {
		t.Fatalf("RMW must return previous value nil, got %v", prev)
	}
	if got := m.Read(0); got != 1 {
		t.Fatalf("RMW result = %v, want 1", got)
	}
	if got := m.Steps(0); got != 1 {
		t.Fatalf("RMW must cost exactly one step, got %d", got)
	}
}

func TestRMWClearsPset(t *testing.T) {
	m := New()
	m.Apply(1, Op{Kind: OpLL, Reg: 0})
	m.RMW(0, 0, func(v Value) Value { return v })
	if resp := m.Apply(1, Op{Kind: OpSC, Reg: 0, Arg: 1}); resp.OK {
		t.Fatal("RMW must invalidate outstanding links")
	}
}

func TestOpAndResponseStrings(t *testing.T) {
	cases := []struct {
		op   Op
		want string
	}{
		{Op{Kind: OpLL, Reg: 2}, "LL(R2)"},
		{Op{Kind: OpSC, Reg: 0, Arg: 7}, "SC(R0, 7)"},
		{Op{Kind: OpValidate, Reg: 1}, "validate(R1)"},
		{Op{Kind: OpSwap, Reg: 3, Arg: "x"}, "swap(R3, x)"},
		{Op{Kind: OpMove, Src: 1, Reg: 2}, "move(R1, R2)"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("Op.String() = %q, want %q", got, c.want)
		}
	}
	if got := OpLL.String(); got != "LL" {
		t.Errorf("OpKind.String() = %q, want LL", got)
	}
	if got := (Response{OK: true, Val: 3}).String(); got != "(true, 3)" {
		t.Errorf("Response.String() = %q", got)
	}
}

// randomOp draws a random operation over a small register file.
func randomOp(rng *rand.Rand, nregs int) Op {
	kind := OpKind(rng.Intn(5) + 1)
	op := Op{Kind: kind, Reg: rng.Intn(nregs)}
	switch kind {
	case OpSC, OpSwap:
		op.Arg = rng.Intn(100)
	case OpMove:
		op.Src = rng.Intn(nregs)
	}
	return op
}

// TestPropertySCExactlyOneWinner: whatever the interleaving, between two
// successful SCs on a register every other SC on it fails, and a successful
// SC requires an unbroken link. We model the invariant by replaying a random
// op stream against a reference implementation of the link rule.
func TestPropertySCExactlyOneWinner(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New()
		const nregs, npids = 4, 5
		// linked[reg][pid] mirrors what the Pset must be.
		linked := make(map[int]map[int]bool)
		for r := 0; r < nregs; r++ {
			linked[r] = make(map[int]bool)
		}
		for step := 0; step < 300; step++ {
			pid := rng.Intn(npids)
			op := randomOp(rng, nregs)
			resp := m.Apply(pid, op)
			switch op.Kind {
			case OpLL:
				linked[op.Reg][pid] = true
			case OpSC:
				if resp.OK != linked[op.Reg][pid] {
					return false
				}
				if resp.OK {
					linked[op.Reg] = make(map[int]bool)
				}
			case OpValidate:
				if resp.OK != linked[op.Reg][pid] {
					return false
				}
			case OpSwap:
				linked[op.Reg] = make(map[int]bool)
			case OpMove:
				if op.Src != op.Reg { // self-moves are complete no-ops
					linked[op.Reg] = make(map[int]bool)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMoveCopiesValue: after move(Rs, Rd), Rd holds exactly what a
// shadow model says Rs held, for random op streams.
func TestPropertyMoveCopiesValue(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New()
		const nregs = 4
		shadow := make(map[int]Value)
		for step := 0; step < 200; step++ {
			pid := rng.Intn(3)
			op := randomOp(rng, nregs)
			resp := m.Apply(pid, op)
			switch op.Kind {
			case OpSC:
				if resp.OK {
					shadow[op.Reg] = op.Arg
				}
			case OpSwap:
				shadow[op.Reg] = op.Arg
			case OpMove:
				shadow[op.Reg] = shadow[op.Src]
			}
			if !ValuesEqual(m.Read(op.Reg), shadow[op.Reg]) {
				return false
			}
		}
		// Cross-check every register against one final read.
		for r := 0; r < nregs; r++ {
			if v, ok := shadow[r]; ok && !ValuesEqual(m.Read(r), v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyUnknownOpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Apply with unknown op kind must panic")
		}
	}()
	New().Apply(0, Op{Kind: OpKind(99)})
}
