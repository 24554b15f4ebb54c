package shmem

import (
	"reflect"
	"testing"
)

// TestReadDoesNotPerturbFreshRegister is the PR 6 headline regression
// test: the read-only checker accessors must not allocate an untouched
// register, so Touched/Snapshot/Fingerprint are unchanged by them.
func TestReadDoesNotPerturbFreshRegister(t *testing.T) {
	m := New(WithInit(func(reg int) Value { return reg * 10 }))
	if got := m.Read(7); got != 70 {
		t.Fatalf("Read(7) = %v, want 70 (the initial value)", got)
	}
	if m.PsetContains(7, 0) {
		t.Fatal("fresh register must have an empty Pset")
	}
	if got := m.Touched(); len(got) != 0 {
		t.Fatalf("checker reads perturbed the register file: Touched = %v, want none", got)
	}
	if snap := m.Snapshot(); len(snap) != 0 {
		t.Fatalf("checker reads perturbed the snapshot: %v", snap)
	}
	if fp := m.Fingerprint(); fp != "" {
		t.Fatalf("checker reads perturbed the fingerprint: %q", fp)
	}

	// A real operation still allocates and initializes as before.
	r := m.Apply(0, Op{Kind: OpLL, Reg: 7})
	if r.Val != 70 {
		t.Fatalf("LL(R7) = %v, want 70", r.Val)
	}
	if got, want := m.Touched(), []int{7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Touched = %v, want %v", got, want)
	}
	if got := m.Read(7); got != 70 {
		t.Fatalf("Read(7) after LL = %v, want 70", got)
	}
	if !m.PsetContains(7, 0) {
		t.Fatal("PsetContains must see the LL link")
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
	if allocs := testing.AllocsPerRun(100, func() { m.PsetContains(3, 0) }); allocs != 0 {
		t.Fatalf("PsetContains of fresh register allocates %.1f objects/op, want 0", allocs)
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

func TestMaxStepsTieAndEmpty(t *testing.T) {
	m := New()
	if steps, pid := m.MaxSteps(); steps != 0 || pid != -1 {
		t.Fatalf("MaxSteps with no steps = (%d, %d), want (0, -1)", steps, pid)
	}
	// p2 steps first; then p0 catches up to the same count. The smallest
	// pid attaining the max must win the tie even though it got there last.
	m.Apply(2, Op{Kind: OpLL, Reg: 0})
	m.Apply(2, Op{Kind: OpLL, Reg: 0})
	if steps, pid := m.MaxSteps(); steps != 2 || pid != 2 {
		t.Fatalf("MaxSteps = (%d, %d), want (2, 2)", steps, pid)
	}
	m.Apply(0, Op{Kind: OpLL, Reg: 0})
	m.Apply(0, Op{Kind: OpLL, Reg: 0})
	if steps, pid := m.MaxSteps(); steps != 2 || pid != 0 {
		t.Fatalf("MaxSteps after tie = (%d, %d), want (2, 0)", steps, pid)
	}
	// A higher pid overtaking takes the lead outright.
	m.Apply(2, Op{Kind: OpLL, Reg: 0})
	if steps, pid := m.MaxSteps(); steps != 3 || pid != 2 {
		t.Fatalf("MaxSteps after overtake = (%d, %d), want (3, 2)", steps, pid)
	}
	// RMW charges through the same accounting.
	m.RMW(5, 1, func(v Value) Value { return v })
	m.RMW(5, 1, func(v Value) Value { return v })
	m.RMW(5, 1, func(v Value) Value { return v })
	m.RMW(5, 1, func(v Value) Value { return v })
	if steps, pid := m.MaxSteps(); steps != 4 || pid != 5 {
		t.Fatalf("MaxSteps after RMW = (%d, %d), want (4, 5)", steps, pid)
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
