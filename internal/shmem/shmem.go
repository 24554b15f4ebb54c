// Package shmem implements the shared-memory model of Jayanti (PODC 1998),
// "A Time Complexity Lower Bound for Randomized Implementations of Some
// Shared Objects", Section 3.
//
// The memory consists of an infinite number of shared registers R0, R1, ...,
// each of unbounded size. The state of a register R is the pair
// (value(R), Pset(R)), where Pset is the set of processes whose last LL on R
// has not been invalidated. Five operations are supported: LL, SC, validate,
// swap, and move. Per the paper's strengthened definitions, SC and validate
// return the register's value in addition to the usual boolean, which makes
// the lower bound proved against this memory stronger.
//
// Registers are allocated lazily, so the "infinite" register file costs only
// what a run touches. Values are arbitrary Go values treated as immutable;
// callers must never mutate a value after storing it.
package shmem

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
)

// Value is the contents of a shared register. Values are immutable by
// convention: once stored, a Value (including any slice or map it contains)
// must not be modified. Equality of values is structural (reflect.DeepEqual).
type Value any

// OpKind identifies one of the five shared-memory operations of the model.
type OpKind int

// The five operations supported by the shared memory (Section 3 of the
// paper). There is deliberately no plain read: validate returns the current
// value without perturbing the register, so read(R) = validate(R).Val.
const (
	OpLL OpKind = iota + 1
	OpSC
	OpValidate
	OpSwap
	OpMove
)

// String returns the paper's name for the operation.
func (k OpKind) String() string {
	switch k {
	case OpLL:
		return "LL"
	case OpSC:
		return "SC"
	case OpValidate:
		return "validate"
	case OpSwap:
		return "swap"
	case OpMove:
		return "move"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is a single shared-memory operation request.
//
//   - LL, Validate: Reg is the register to access.
//   - SC, Swap: Reg is the register, Arg the value to store.
//   - Move: Src is the source register, Reg the destination register
//     (move(R_src, R_dst) copies value(R_src) into R_dst).
type Op struct {
	Kind OpKind
	Reg  int
	Src  int
	Arg  Value
}

// String renders the operation in the paper's notation.
func (o Op) String() string {
	switch o.Kind {
	case OpLL:
		return fmt.Sprintf("LL(R%d)", o.Reg)
	case OpSC:
		return fmt.Sprintf("SC(R%d, %v)", o.Reg, o.Arg)
	case OpValidate:
		return fmt.Sprintf("validate(R%d)", o.Reg)
	case OpSwap:
		return fmt.Sprintf("swap(R%d, %v)", o.Reg, o.Arg)
	case OpMove:
		return fmt.Sprintf("move(R%d, R%d)", o.Src, o.Reg)
	default:
		return fmt.Sprintf("op(%v)", o.Kind)
	}
}

// Response is the reply to an Op.
//
//   - LL: Val is the register's value; OK is true.
//   - SC: OK reports success; Val is the register's previous value (the
//     strengthened response of Section 3).
//   - Validate: OK reports whether the caller's link is still valid; Val is
//     the register's current value.
//   - Swap: Val is the register's previous value; OK is true.
//   - Move: OK is true; Val is nil (move returns only an acknowledgement).
type Response struct {
	OK  bool
	Val Value
}

// String renders the response compactly.
func (r Response) String() string {
	return fmt.Sprintf("(%t, %v)", r.OK, r.Val)
}

// RegState is a snapshot of one register's state: its value and the sorted
// list of processes in its Pset.
type RegState struct {
	Val  Value
	Pset []int
}

// ValuesEqual reports structural equality of two register values. Scalar
// values — the overwhelming majority on the adversary and exploration hot
// paths — are compared by a type switch; everything else falls back to
// reflect.DeepEqual. The two agree exactly: DeepEqual on identical scalar
// types is ==, and on mismatched dynamic types it is false.
func ValuesEqual(a, b Value) bool {
	if a == nil || b == nil {
		return a == b
	}
	switch av := a.(type) {
	case int:
		bv, ok := b.(int)
		return ok && av == bv
	case int64:
		bv, ok := b.(int64)
		return ok && av == bv
	case string:
		bv, ok := b.(string)
		return ok && av == bv
	case bool:
		bv, ok := b.(bool)
		return ok && av == bv
	}
	return reflect.DeepEqual(a, b)
}

type register struct {
	val  Value
	pset PidBits
}

// Backend is the register-file surface the step-driven harnesses drive a
// memory through: package explore steps and forks its runners' memories
// with it, and experiment E15 compares final states with it. Memory
// implements it; so do llsc.Memory, the same register file behind a lock
// for real goroutines, and the Blelloch–Wei LL/SC-from-CAS construction
// (package algos/bwllsc), which the differential tests there hold
// byte-identical to Memory: same responses, same fingerprint bytes.
type Backend interface {
	// Apply performs op on behalf of pid (sched.Memory).
	Apply(pid int, op Op) Response
	// AppendFingerprint appends the binary rendering of the state,
	// in exactly the byte format of Memory.AppendFingerprint.
	AppendFingerprint(dst []byte) []byte
	// Clone returns an independent memory in the same state: equal
	// fingerprints and step counts now, and every operation sequence then
	// gives both the same responses. Operations on either never change
	// the other. Exhaustive exploration forks its runners with it.
	Clone() Backend
}

// Memory is the shared memory: an unbounded register file plus per-process
// shared-access step counters. Memory is not safe for concurrent use; the
// lower-bound machinery and the schedule explorer drive it from one
// goroutine. Package llsc puts it behind a mutex for real goroutines.
type Memory struct {
	regs map[int]*register
	// touched holds the indices of allocated registers in increasing
	// order, maintained on first touch so Snapshot and the fingerprint
	// never sort (DESIGN §11).
	touched   []int
	steps     map[int]int64
	total     int64
	trackBits bool
	maxBits   int
	// fpScratch is the reused value-rendering buffer of AppendFingerprint.
	fpScratch []byte
}

// Option configures a Memory.
type Option func(*Memory)

// New creates an empty shared memory. All registers initially hold nil and
// have empty Psets.
func New(opts ...Option) *Memory {
	m := &Memory{
		regs:  make(map[int]*register),
		steps: make(map[int]int64),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

func (m *Memory) reg(i int) *register {
	r, ok := m.regs[i]
	if !ok {
		r = &register{}
		m.regs[i] = r
		m.noteTouched(i)
	}
	return r
}

// chargeStep charges pid one shared-access step.
func (m *Memory) chargeStep(pid int) {
	m.steps[pid]++
	m.total++
}

// noteTouched inserts i into the sorted touched index (first touch only).
func (m *Memory) noteTouched(i int) {
	at := sort.SearchInts(m.touched, i)
	m.touched = append(m.touched, 0)
	copy(m.touched[at+1:], m.touched[at:])
	m.touched[at] = i
}

// Apply performs op on behalf of process pid, charges pid one shared-access
// step, and returns the response. The semantics follow Section 3 verbatim.
func (m *Memory) Apply(pid int, op Op) Response {
	m.chargeStep(pid)
	switch op.Kind {
	case OpLL:
		r := m.reg(op.Reg)
		r.pset.Add(pid)
		return Response{OK: true, Val: r.val}
	case OpSC:
		r := m.reg(op.Reg)
		prev := r.val
		if r.pset.Contains(pid) {
			r.val = op.Arg
			r.pset.Clear()
			m.noteBits(op.Arg)
			return Response{OK: true, Val: prev}
		}
		return Response{OK: false, Val: prev}
	case OpValidate:
		r := m.reg(op.Reg)
		return Response{OK: r.pset.Contains(pid), Val: r.val}
	case OpSwap:
		r := m.reg(op.Reg)
		prev := r.val
		r.val = op.Arg
		r.pset.Clear()
		m.noteBits(op.Arg)
		return Response{OK: true, Val: prev}
	case OpMove:
		// A self-move is a complete no-op: Section 3 states that a move
		// leaves the source register's state unchanged, and when src = dst
		// the register is its own source, so neither its value nor its
		// Pset may change. (Clearing the Pset would leak the mover's
		// existence through later SC failures while the movers bookkeeping
		// of Section 4 — which carries only value flow — could not account
		// for it, breaking Lemmas 4.1 and 5.2 simultaneously.)
		if op.Src == op.Reg {
			return Response{OK: true}
		}
		src := m.reg(op.Src)
		dst := m.reg(op.Reg)
		dst.val = src.val
		dst.pset.Clear()
		return Response{OK: true}
	default:
		panic(fmt.Sprintf("shmem: unknown op kind %v", op.Kind))
	}
}

// Read returns the current value of register i without charging any process
// a step and without perturbing the register. It exists for checkers and
// reporting code; algorithms must go through Apply.
//
// Reading an untouched register returns nil without allocating it: the
// register stays out of Snapshot and the fingerprint, so a checker's read
// never splits one state into two.
func (m *Memory) Read(i int) Value {
	if r, ok := m.regs[i]; ok {
		return r.val
	}
	return nil
}

// Steps returns the number of shared-memory operations performed by pid so
// far — the per-process shared-access time t(p, R) of the paper.
func (m *Memory) Steps(pid int) int64 {
	return m.steps[pid]
}

// TotalSteps returns the total number of shared-memory operations applied.
func (m *Memory) TotalSteps() int64 {
	return m.total
}

// Snapshot captures the state of every touched register: value plus sorted
// Pset. Untouched registers are omitted (they hold their initial value and
// an empty Pset by construction).
func (m *Memory) Snapshot() map[int]RegState {
	snap := make(map[int]RegState, len(m.touched))
	for _, i := range m.touched {
		r := m.regs[i]
		snap[i] = RegState{Val: r.val, Pset: r.pset.Sorted()}
	}
	return snap
}

// Clone implements Backend: a deep copy of the register file (values are
// immutable and shared; Psets are copied), the step counters and the bit
// tracking.
func (m *Memory) Clone() Backend {
	c := *m
	c.regs = make(map[int]*register, len(m.regs))
	for i, r := range m.regs {
		c.regs[i] = &register{val: r.val, pset: slices.Clone(r.pset)}
	}
	c.touched = slices.Clone(m.touched)
	c.steps = maps.Clone(m.steps)
	c.fpScratch = nil
	return &c
}
