// Package bwllsc implements the paper's LL/SC shared memory on top of
// pointer-width compare&swap, following the tag-free construction of
// Blelloch and Wei ("LL/SC and Atomic Copy: Constant Time, Space Efficient
// Implementations Using Only Pointer-Width CAS", DISC 2020; see PAPERS.md):
// every write installs a freshly allocated immutable node, LL announces the
// node it read, and SC is a single CAS that succeeds exactly when the head
// still is the announced node. Freshness is what defeats ABA — a node that
// has left the head can never be reinstalled, because all installs allocate
// — and Go's garbage collector plays the role of the paper's constant-time
// reclamation scheme (nodes stay alive exactly while some announcement can
// still reference them).
//
// The package is an alternative shmem.Backend: it exposes the same surface
// as the native register file of package shmem and its lock-guarded form
// llsc.Memory (Apply, AppendFingerprint, Clone), and is held byte-identical
// to both — same responses, same fingerprint bytes, and therefore the same
// exploration memo keys — by the differential harness in this package's
// tests and the `make tas-equivalence` CI step. It is written independently of shmem on
// purpose: it is the oracle that holds shmem to the paper's §3 semantics.
// The native validity set (pset) is never stored: a process's LL is valid
// exactly when its announced node still is the head, so the pset is
// derived on demand when fingerprinting.
//
// Swap installs a fresh node in a CAS retry loop. Move — an inter-register
// operation outside the scope of the original construction — reads the
// source head and installs a copy at the destination; the two accesses are
// not one atomic action, so move is atomic only under the step-driven
// executors (sched.Execute, package explore, the lower-bound adversary),
// which serialize shared-memory operations. Those are exactly the drivers
// this backend is selectable from.
package bwllsc

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"jayanti98/internal/shmem"
)

// node is one immutable register version. Identity (pointer equality) is
// what LL announces and SC CASes on; the value never changes after
// allocation.
type node struct {
	val shmem.Value
}

// register is one Blelloch–Wei LL/SC object: the current version and one
// announcement slot per process. head is never nil once the register is
// allocated; ann[p] is nil until p's first LL.
type register struct {
	head atomic.Pointer[node]
	ann  []atomic.Pointer[node]
}

// pset derives the native backend's validity set: the processes whose
// announced node still is the head.
func (r *register) pset() shmem.PidBits {
	var set shmem.PidBits
	h := r.head.Load()
	for p := range r.ann {
		if r.ann[p].Load() == h {
			set.Add(p)
		}
	}
	return set
}

// Memory is a Blelloch–Wei LL/SC shared memory for n processes. It
// implements shmem.Backend. The registry (lazy register allocation,
// fingerprint scratch) is mutex-guarded like llsc.Memory; the per-register
// operations themselves are CAS-based.
type Memory struct {
	n  int
	mu sync.Mutex
	// regs is the lazily allocated unbounded register file.
	regs map[int]*register
	// touched holds the allocated register indices in increasing order,
	// maintained on first touch so fingerprinting never sorts.
	touched []int
	// fpScratch is the reused value-rendering buffer of AppendFingerprint.
	fpScratch []byte
}

var _ shmem.Backend = (*Memory)(nil)

// New creates a Blelloch–Wei LL/SC memory for n processes.
func New(n int) *Memory {
	return &Memory{n: n, regs: make(map[int]*register)}
}

// reg returns register i, allocating it — with its initial version node —
// on first touch. Callers hold mu.
func (m *Memory) reg(i int) *register {
	r, ok := m.regs[i]
	if !ok {
		r = &register{ann: make([]atomic.Pointer[node], m.n)}
		r.head.Store(&node{})
		m.regs[i] = r
		at := sort.SearchInts(m.touched, i)
		m.touched = append(m.touched, 0)
		copy(m.touched[at+1:], m.touched[at:])
		m.touched[at] = i
	}
	return r
}

// enter returns register i, allocating it if needed. It is the bookkeeping
// prologue every operation runs under the registry lock before touching
// the register's atomics.
func (m *Memory) enter(i int) *register {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reg(i)
}

// Apply performs op on behalf of pid and returns the response, with the
// exact semantics of shmem.Memory.Apply (including the self-move no-op).
// It makes *Memory implement sched.Memory and shmem.Backend. Operations of
// distinct pids may run concurrently; one pid's operations must not.
func (m *Memory) Apply(pid int, op shmem.Op) shmem.Response {
	switch op.Kind {
	case shmem.OpLL:
		return shmem.Response{OK: true, Val: m.ll(pid, op.Reg)}
	case shmem.OpSC:
		ok, prev := m.sc(pid, op.Reg, op.Arg)
		return shmem.Response{OK: ok, Val: prev}
	case shmem.OpValidate:
		ok, v := m.validate(pid, op.Reg)
		return shmem.Response{OK: ok, Val: v}
	case shmem.OpSwap:
		return shmem.Response{OK: true, Val: m.swap(op.Reg, op.Arg)}
	case shmem.OpMove:
		m.move(op.Src, op.Reg)
		return shmem.Response{OK: true}
	default:
		panic(fmt.Sprintf("bwllsc: unknown op kind %v", op.Kind))
	}
}

// AppendFingerprint appends the compact binary state rendering in the exact
// byte format of the native backend (shmem.Memory.AppendFingerprint): a
// uvarint register count, then per touched register a uvarint index, the
// length-prefixed %v rendering of the value, and the canonical derived-pset
// bitset words. Byte identity here is what makes exploration memo keys —
// and therefore exhaustive state/run counts — backend-independent.
func (m *Memory) AppendFingerprint(dst []byte) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	dst = binary.AppendUvarint(dst, uint64(len(m.touched)))
	for _, i := range m.touched {
		r := m.regs[i]
		dst = binary.AppendUvarint(dst, uint64(i))
		m.fpScratch = shmem.AppendFmt(m.fpScratch[:0], r.head.Load().val)
		dst = binary.AppendUvarint(dst, uint64(len(m.fpScratch)))
		dst = append(dst, m.fpScratch...)
		dst = r.pset().AppendBinary(dst)
	}
	return dst
}

// staleNode is what a clone's stale announcements point to. No register
// ever installs it (every install allocates a fresh node), so it is never
// a head, which is all a stale announcement must guarantee.
var staleNode = &node{}

// Clone implements shmem.Backend by remapping node identities: each
// register of the clone gets a fresh head node holding the same value,
// every announcement of the origin's head becomes an announcement of the
// clone's new head, and every stale announcement becomes staleNode. In the
// clone an announcement therefore equals the head exactly when it did in
// the origin, so every LL link — and the derived pset, hence the
// fingerprint — carries over, while the two memories share no node that
// a head can hold: a CAS on either can never succeed against the other's
// nodes.
func (m *Memory) Clone() shmem.Backend {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := &Memory{
		n:       m.n,
		regs:    make(map[int]*register, len(m.regs)),
		touched: slices.Clone(m.touched),
	}
	for i, r := range m.regs {
		head := r.head.Load()
		cr := &register{ann: make([]atomic.Pointer[node], m.n)}
		fresh := &node{val: head.val}
		cr.head.Store(fresh)
		for p := range r.ann {
			switch a := r.ann[p].Load(); {
			case a == head:
				cr.ann[p].Store(fresh)
			case a != nil:
				cr.ann[p].Store(staleNode)
			}
		}
		c.regs[i] = cr
	}
	return c
}

// ll reads the head of reg and announces it for pid.
func (m *Memory) ll(pid, reg int) shmem.Value {
	r := m.enter(reg)
	n := r.head.Load()
	r.ann[pid].Store(n)
	return n.val
}

// sc is one CAS from pid's announced node to a fresh node. It succeeds
// exactly when no write intervened since the announcing LL — fresh
// allocation guarantees the announced node cannot have been reinstalled. A
// failed SC reports the current value, like the native backend.
func (m *Memory) sc(pid, reg int, v shmem.Value) (bool, shmem.Value) {
	r := m.enter(reg)
	exp := r.ann[pid].Load()
	if exp != nil && r.head.CompareAndSwap(exp, &node{val: v}) {
		return true, exp.val
	}
	return false, r.head.Load().val
}

// validate reports pid's link to reg as valid exactly when the announced
// node still is the head.
func (m *Memory) validate(pid, reg int) (bool, shmem.Value) {
	r := m.enter(reg)
	n := r.head.Load()
	exp := r.ann[pid].Load()
	return exp == n, n.val
}

// swap unconditionally installs a fresh node, retrying the CAS until it
// lands. Installing a fresh node is what invalidates every outstanding LL,
// mirroring the native pset clear.
func (m *Memory) swap(reg int, v shmem.Value) shmem.Value {
	r := m.enter(reg)
	fresh := &node{val: v}
	for {
		old := r.head.Load()
		if r.head.CompareAndSwap(old, fresh) {
			return old.val
		}
	}
}

// move copies the head value of src into a fresh node at dst. A self-move
// is a complete no-op that allocates no register, like the native backend.
// See the package comment for move's atomicity caveat.
func (m *Memory) move(src, dst int) {
	if src == dst {
		return
	}
	m.mu.Lock()
	s := m.reg(src)
	d := m.reg(dst)
	m.mu.Unlock()
	v := s.head.Load().val
	fresh := &node{val: v}
	for {
		old := d.head.Load()
		if d.head.CompareAndSwap(old, fresh) {
			return
		}
	}
}
