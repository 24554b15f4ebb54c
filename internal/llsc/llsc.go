// Package llsc provides a concurrent, linearizable implementation of the
// paper's shared memory (LL, SC, validate, swap, move on an unbounded
// register file) that real goroutines can share.
//
// Package shmem is the single-threaded simulator that the lower-bound
// machinery drives step by step; this package is its concurrent twin. Each
// process obtains a Handle bound to its process id; Handle implements
// machine.Port, so the universal constructions of package universal run
// unchanged on either backend — the "mimic the construction with
// goroutines" side of the reproduction.
//
// Every operation takes a single short critical section guarded by one
// mutex, which makes each operation atomic (trivially linearizable, with
// the critical section as the linearization point). Per-process step
// counters are maintained so concurrent experiments can report
// shared-access costs the same way the simulator does.
package llsc

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"

	"jayanti98/internal/machine"
	"jayanti98/internal/shmem"
)

type register struct {
	val  shmem.Value
	pset shmem.PidBits
}

// Memory is a concurrent shared memory for n processes. All methods are
// safe for concurrent use.
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
	// fpScratch is the reused value-rendering buffer of AppendFingerprint,
	// guarded by mu like everything else.
	fpScratch []byte
}

// Option configures a Memory.
type Option func(*Memory)

// WithInit sets the initial value of every register as a pure function of
// its index (default: nil).
func WithInit(f func(reg int) shmem.Value) Option {
	return func(m *Memory) { m.initVal = f }
}

// New creates a concurrent shared memory for n processes.
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

func (m *Memory) reg(i int) *register {
	r, ok := m.regs[i]
	if !ok {
		r = &register{}
		if m.initVal != nil {
			r.val = m.initVal(i)
		}
		m.regs[i] = r
		at := sort.SearchInts(m.touched, i)
		m.touched = append(m.touched, 0)
		copy(m.touched[at+1:], m.touched[at:])
		m.touched[at] = i
	}
	return r
}

// Handle returns the port of process pid. Handles are lightweight; any
// number may be created. A handle must only be used by one goroutine at a
// time (per the model, a process is sequential), but distinct handles may
// be used concurrently.
func (m *Memory) Handle(pid int) *Handle {
	if pid < 0 || pid >= m.n {
		panic(fmt.Sprintf("llsc: pid %d out of range [0,%d)", pid, m.n))
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
// It makes *Memory implement sched.Memory, so the step-driven executors —
// sched.Execute and the schedule-exploration engine of package explore —
// can drive machines against the concurrent backend.
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
		panic(fmt.Sprintf("llsc: unknown op kind %v", op.Kind))
	}
}

// Fingerprint renders the full memory state — every touched register's
// value and Pset, in register order — as a deterministic string. Two
// memories with equal fingerprints are in identical states (up to
// registers that were touched and restored to their initial state, which
// only ever makes the comparison stricter). The exploration harness folds
// fingerprints into its memoization keys.
func (m *Memory) Fingerprint() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	for _, i := range m.touched {
		r := m.regs[i]
		fmt.Fprintf(&b, "R%d=%v pset=%v;", i, r.val, r.pset.Sorted())
	}
	return b.String()
}

// AppendFingerprint appends a compact binary rendering of the same state
// Fingerprint describes: a uvarint register count, then per touched
// register (in increasing order) a uvarint index, the length-prefixed %v
// rendering of the value, and the canonical Pset bitset words
// (shmem.PidBits.AppendBinary). The register count prefix makes the block
// self-delimiting, so callers can concatenate it with other key material
// without separators. The exploration harness builds its memoization keys
// this way (DESIGN §11); it replaced the sort-per-call string Fingerprint
// on that path.
func (m *Memory) AppendFingerprint(dst []byte) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	dst = binary.AppendUvarint(dst, uint64(len(m.touched)))
	for _, i := range m.touched {
		r := m.regs[i]
		dst = binary.AppendUvarint(dst, uint64(i))
		m.fpScratch = shmem.AppendFmt(m.fpScratch[:0], r.val)
		dst = binary.AppendUvarint(dst, uint64(len(m.fpScratch)))
		dst = append(dst, m.fpScratch...)
		dst = r.pset.AppendBinary(dst)
	}
	return dst
}

// ReadQuiesced returns the value of register i without charging a step.
// It is intended for inspection after the concurrent workload has
// quiesced; it still takes the lock, so it is safe at any time. Reading
// an untouched register returns its initial value without allocating it,
// so the fingerprint is unchanged (until PR 6 this routed through the
// lazily-allocating register lookup and perturbed it).
func (m *Memory) ReadQuiesced(i int) shmem.Value {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.regs[i]; ok {
		return r.val
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

// LL implements machine.Port.
func (h *Handle) LL(reg int) shmem.Value {
	m := h.mem
	m.mu.Lock()
	defer m.mu.Unlock()
	m.steps[h.pid]++
	r := m.reg(reg)
	r.pset.Add(h.pid)
	return r.val
}

// SC implements machine.Port.
func (h *Handle) SC(reg int, v shmem.Value) (bool, shmem.Value) {
	m := h.mem
	m.mu.Lock()
	defer m.mu.Unlock()
	m.steps[h.pid]++
	r := m.reg(reg)
	prev := r.val
	if r.pset.Contains(h.pid) {
		r.val = v
		r.pset.Clear()
		return true, prev
	}
	return false, prev
}

// Validate implements machine.Port.
func (h *Handle) Validate(reg int) (bool, shmem.Value) {
	m := h.mem
	m.mu.Lock()
	defer m.mu.Unlock()
	m.steps[h.pid]++
	r := m.reg(reg)
	return r.pset.Contains(h.pid), r.val
}

// Read implements machine.Port (a validate with the boolean dropped).
func (h *Handle) Read(reg int) shmem.Value {
	_, v := h.Validate(reg)
	return v
}

// Swap implements machine.Port.
func (h *Handle) Swap(reg int, v shmem.Value) shmem.Value {
	m := h.mem
	m.mu.Lock()
	defer m.mu.Unlock()
	m.steps[h.pid]++
	r := m.reg(reg)
	prev := r.val
	r.val = v
	r.pset.Clear()
	return prev
}

// Move implements machine.Port. A self-move is a complete no-op (see
// shmem.Memory.Apply).
func (h *Handle) Move(src, dst int) {
	m := h.mem
	m.mu.Lock()
	defer m.mu.Unlock()
	m.steps[h.pid]++
	if src == dst {
		return
	}
	s := m.reg(src)
	d := m.reg(dst)
	d.val = s.val
	d.pset.Clear()
}
