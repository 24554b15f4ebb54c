package shmem

import (
	"bytes"
	"reflect"
	"testing"
)

// TestReadDoesNotPerturbFreshRegister is the PR 6 headline regression
// test: the read-only checker accessor must not allocate an untouched
// register, so Snapshot and the fingerprint are unchanged by it.
func TestReadDoesNotPerturbFreshRegister(t *testing.T) {
	m := New()
	empty := m.AppendFingerprint(nil)
	if got := m.Read(7); got != nil {
		t.Fatalf("Read(7) = %v, want nil (the initial value)", got)
	}
	if snap := m.Snapshot(); len(snap) != 0 {
		t.Fatalf("checker reads perturbed the snapshot: %v", snap)
	}
	if fp := m.AppendFingerprint(nil); !bytes.Equal(fp, empty) {
		t.Fatalf("checker reads perturbed the fingerprint: %x, want %x", fp, empty)
	}

	// A real operation still allocates the register.
	m.Apply(0, Op{Kind: OpLL, Reg: 7})
	snap := m.Snapshot()
	if got, want := snap[7], (RegState{Pset: []int{0}}); len(snap) != 1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("Snapshot after LL(R7) = %v, want only R7 = %v", snap, want)
	}
	if got := m.Read(7); got != nil {
		t.Fatalf("Read(7) after LL = %v, want nil", got)
	}
}

func TestReadFreshRegisterNoInit(t *testing.T) {
	m := New()
	if got := m.Read(3); got != nil {
		t.Fatalf("Read of fresh register = %v, want nil", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { m.Read(3) }); allocs != 0 {
		t.Fatalf("Read of fresh register allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPsetClearAllocationFree backstops the bitset conversion: the LL/SC
// pair on a warmed register — including the Pset clear on SC success, and
// the repeated clear of an already-empty Pset by swap — must not allocate.
func TestPsetClearAllocationFree(t *testing.T) {
	m := New()
	val := Value("v")
	// Warm: register allocated, pid counters exist, pset word grown.
	m.Apply(0, Op{Kind: OpLL, Reg: 0})
	m.Apply(0, Op{Kind: OpSC, Reg: 0, Arg: val})
	if allocs := testing.AllocsPerRun(100, func() {
		m.Apply(0, Op{Kind: OpLL, Reg: 0})
		m.Apply(0, Op{Kind: OpSC, Reg: 0, Arg: val})
	}); allocs != 0 {
		t.Fatalf("warm LL+SC pair allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		m.Apply(0, Op{Kind: OpSwap, Reg: 0, Arg: val})
	}); allocs != 0 {
		t.Fatalf("swap with already-empty Pset allocates %.1f objects/op, want 0", allocs)
	}
}

func TestValuesEqualScalarFastPath(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{nil, nil, true},
		{nil, 0, false},
		{0, nil, false},
		{1, 1, true},
		{1, 2, false},
		{int64(1), int64(1), true},
		{int64(1), int64(2), false},
		{1, int64(1), false}, // mismatched dynamic types, like DeepEqual
		{"a", "a", true},
		{"a", "b", false},
		{"1", 1, false},
		{true, true, true},
		{true, false, false},
		{true, 1, false},
		{[]int{1}, []int{1}, true},   // falls back to DeepEqual
		{[]int{1}, []int{2}, false},  // falls back to DeepEqual
		{1, []int{1}, false},         // scalar vs composite
		{[]int(nil), []int{}, false}, // DeepEqual semantics preserved
	}
	for _, tc := range cases {
		if got := ValuesEqual(tc.a, tc.b); got != tc.want {
			t.Errorf("ValuesEqual(%#v, %#v) = %t, want %t", tc.a, tc.b, got, tc.want)
		}
		if got := ValuesEqual(tc.b, tc.a); got != tc.want {
			t.Errorf("ValuesEqual(%#v, %#v) = %t, want %t (symmetry)", tc.b, tc.a, got, tc.want)
		}
	}
}
