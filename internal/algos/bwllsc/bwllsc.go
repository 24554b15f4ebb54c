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
// The package is an alternative llsc.Backend: it exposes the same surface
// as the native mutex-guarded register file (N, Handle/Apply, Steps,
// Fingerprint, AppendFingerprint, ReadQuiesced) and is held byte-identical
// to it — same responses, same step counts, same fingerprint bytes, and
// therefore the same exploration memo keys — by the differential harness in
// this package's tests and the `make tas-equivalence` CI step. The native
// validity set (pset) is never stored: a process's LL is valid exactly when
// its announced node still is the head, so the pset is derived on demand
// when fingerprinting.
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
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"jayanti98/internal/llsc"
	"jayanti98/internal/machine"
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
// implements llsc.Backend. The registry (lazy register allocation, step
// counters, fingerprint scratch) is mutex-guarded exactly like the native
// backend; the per-register operations themselves are CAS-based.
type Memory struct {
	n  int
	mu sync.Mutex
	// regs is the lazily allocated unbounded register file.
	regs map[int]*register
	// touched holds the allocated register indices in increasing order,
	// maintained on first touch so fingerprinting never sorts.
	touched []int
	// steps counts shared accesses per pid.
	steps map[int]int64
	// initVal optionally initializes registers on first touch.
	initVal func(reg int) shmem.Value
	// fpScratch is the reused value-rendering buffer of AppendFingerprint.
	fpScratch []byte
}

var _ llsc.Backend = (*Memory)(nil)

// Option configures a Memory.
type Option func(*Memory)

// WithInit sets the initial value of every register as a pure function of
// its index (default: nil).
func WithInit(f func(reg int) shmem.Value) Option {
	return func(m *Memory) { m.initVal = f }
}

// New creates a Blelloch–Wei LL/SC memory for n processes.
func New(n int, opts ...Option) *Memory {
	m := &Memory{
		n:     n,
		regs:  make(map[int]*register),
		steps: make(map[int]int64),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// N returns the number of processes the memory was created for.
func (m *Memory) N() int { return m.n }

// reg returns register i, allocating it — with its initial version node —
// on first touch. Callers hold mu.
func (m *Memory) reg(i int) *register {
	r, ok := m.regs[i]
	if !ok {
		r = &register{ann: make([]atomic.Pointer[node], m.n)}
		var init shmem.Value
		if m.initVal != nil {
			init = m.initVal(i)
		}
		r.head.Store(&node{val: init})
		m.regs[i] = r
		at := sort.SearchInts(m.touched, i)
		m.touched = append(m.touched, 0)
		copy(m.touched[at+1:], m.touched[at:])
		m.touched[at] = i
	}
	return r
}

// enter charges pid one shared access and returns register i, allocating it
// if needed. It is the bookkeeping prologue every operation runs under the
// registry lock before touching the register's atomics.
func (m *Memory) enter(pid, i int) *register {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.steps[pid]++
	return m.reg(i)
}

// Handle returns the port of process pid. A handle must only be used by one
// goroutine at a time (per the model, a process is sequential), but
// distinct handles may be used concurrently.
func (m *Memory) Handle(pid int) *Handle {
	if pid < 0 || pid >= m.n {
		panic(fmt.Sprintf("bwllsc: pid %d out of range [0,%d)", pid, m.n))
	}
	return &Handle{mem: m, pid: pid}
}

// Steps returns pid's shared-access step count.
func (m *Memory) Steps(pid int) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.steps[pid]
}

// TotalSteps returns the total shared-access step count.
func (m *Memory) TotalSteps() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total int64
	for _, s := range m.steps {
		total += s
	}
	return total
}

// Apply performs op on behalf of pid and returns the response, with the
// exact semantics of shmem.Memory.Apply (including the self-move no-op).
// It makes *Memory implement sched.Memory and llsc.Backend.
func (m *Memory) Apply(pid int, op shmem.Op) shmem.Response {
	h := Handle{mem: m, pid: pid}
	switch op.Kind {
	case shmem.OpLL:
		return shmem.Response{OK: true, Val: h.LL(op.Reg)}
	case shmem.OpSC:
		ok, prev := h.SC(op.Reg, op.Arg)
		return shmem.Response{OK: ok, Val: prev}
	case shmem.OpValidate:
		ok, v := h.Validate(op.Reg)
		return shmem.Response{OK: ok, Val: v}
	case shmem.OpSwap:
		return shmem.Response{OK: true, Val: h.Swap(op.Reg, op.Arg)}
	case shmem.OpMove:
		h.Move(op.Src, op.Reg)
		return shmem.Response{OK: true}
	default:
		panic(fmt.Sprintf("bwllsc: unknown op kind %v", op.Kind))
	}
}

// Fingerprint renders the full memory state — every touched register's
// value and derived pset, in register order — exactly as the native
// backend's Fingerprint does.
func (m *Memory) Fingerprint() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	for _, i := range m.touched {
		r := m.regs[i]
		fmt.Fprintf(&b, "R%d=%v pset=%v;", i, r.head.Load().val, r.pset().Sorted())
	}
	return b.String()
}

// AppendFingerprint appends the compact binary state rendering in the exact
// byte format of the native backend (llsc.Memory.AppendFingerprint): a
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

// ReadQuiesced returns the value of register i without charging a step.
// Reading an untouched register returns its initial value without
// allocating it, so the fingerprint is unchanged.
func (m *Memory) ReadQuiesced(i int) shmem.Value {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.regs[i]; ok {
		return r.head.Load().val
	}
	if m.initVal != nil {
		return m.initVal(i)
	}
	return nil
}

// Handle is one process's port to the memory. It implements machine.Port.
type Handle struct {
	mem *Memory
	pid int
}

var _ machine.Port = (*Handle)(nil)

// ID implements machine.Port.
func (h *Handle) ID() int { return h.pid }

// N implements machine.Port.
func (h *Handle) N() int { return h.mem.n }

// LL implements machine.Port: read the head and announce it.
func (h *Handle) LL(reg int) shmem.Value {
	r := h.mem.enter(h.pid, reg)
	n := r.head.Load()
	r.ann[h.pid].Store(n)
	return n.val
}

// SC implements machine.Port: one CAS from the announced node to a fresh
// node. It succeeds exactly when no write intervened since the announcing
// LL — fresh allocation guarantees the announced node cannot have been
// reinstalled. A failed SC reports the current value, like the native
// backend.
func (h *Handle) SC(reg int, v shmem.Value) (bool, shmem.Value) {
	r := h.mem.enter(h.pid, reg)
	exp := r.ann[h.pid].Load()
	if exp != nil && r.head.CompareAndSwap(exp, &node{val: v}) {
		return true, exp.val
	}
	return false, r.head.Load().val
}

// Validate implements machine.Port: the link is valid exactly when the
// announced node still is the head.
func (h *Handle) Validate(reg int) (bool, shmem.Value) {
	r := h.mem.enter(h.pid, reg)
	n := r.head.Load()
	exp := r.ann[h.pid].Load()
	return exp == n, n.val
}

// Read implements machine.Port (a validate with the boolean dropped).
func (h *Handle) Read(reg int) shmem.Value {
	_, v := h.Validate(reg)
	return v
}

// Swap implements machine.Port: unconditionally install a fresh node,
// retrying the CAS until it lands. Installing a fresh node is what
// invalidates every outstanding LL, mirroring the native pset clear.
func (h *Handle) Swap(reg int, v shmem.Value) shmem.Value {
	r := h.mem.enter(h.pid, reg)
	fresh := &node{val: v}
	for {
		old := r.head.Load()
		if r.head.CompareAndSwap(old, fresh) {
			return old.val
		}
	}
}

// Move implements machine.Port. A self-move is a complete no-op (it charges
// a step but allocates no register, like the native backend). See the
// package comment for move's atomicity caveat.
func (h *Handle) Move(src, dst int) {
	m := h.mem
	m.mu.Lock()
	m.steps[h.pid]++
	if src == dst {
		m.mu.Unlock()
		return
	}
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
