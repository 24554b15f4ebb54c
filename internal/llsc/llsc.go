// Package llsc puts the paper's shared memory (LL, SC, validate, swap,
// move on an unbounded register file — package shmem) behind one mutex,
// so real goroutines can share it.
//
// Each process obtains a Handle bound to its process id; Handle implements
// machine.Port, so the universal constructions of package universal run
// unchanged on real goroutines — the "mimic the construction with
// goroutines" side of the reproduction.
//
// Every operation locks the mutex and delegates to one shmem.Memory. That
// makes each operation atomic (trivially linearizable, with the critical
// section as the linearization point) and gives it exactly shmem's
// semantics, step counters and fingerprints: the register file is written
// once. Harnesses that step a memory from one goroutine (package explore,
// the lower-bound adversary) use a bare shmem.Memory and skip the lock.
package llsc

import (
	"fmt"
	"sync"

	"jayanti98/internal/machine"
	"jayanti98/internal/shmem"
)

// Memory is a concurrent shared memory for n processes. All methods are
// safe for concurrent use.
type Memory struct {
	n   int
	mu  sync.Mutex
	mem *shmem.Memory
}

var _ shmem.Backend = (*Memory)(nil)

// New creates a concurrent shared memory for n processes.
func New(n int) *Memory {
	return &Memory{n: n, mem: shmem.New()}
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
	return m.mem.Steps(pid)
}

// TotalSteps returns the total shared-access step count.
func (m *Memory) TotalSteps() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mem.TotalSteps()
}

// Apply performs op on behalf of pid and returns the response
// (shmem.Memory.Apply). It makes *Memory implement sched.Memory, so
// sched.Execute can drive machines against the concurrent memory.
func (m *Memory) Apply(pid int, op shmem.Op) shmem.Response {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mem.Apply(pid, op)
}

// AppendFingerprint appends the binary rendering of the memory state
// (shmem.Memory.AppendFingerprint).
func (m *Memory) AppendFingerprint(dst []byte) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mem.AppendFingerprint(dst)
}

// Clone implements shmem.Backend: an independent concurrent memory over a
// clone of the register file.
func (m *Memory) Clone() shmem.Backend {
	m.mu.Lock()
	defer m.mu.Unlock()
	return &Memory{n: m.n, mem: m.mem.Clone().(*shmem.Memory)}
}

// Handle is one process's port to the memory. It implements machine.Port.
type Handle struct {
	mem *Memory
	pid int
}

var _ machine.Port = (*Handle)(nil)

// ID implements machine.Port.
func (h *Handle) ID() int { return h.pid }

// LL implements machine.Port.
func (h *Handle) LL(reg int) shmem.Value {
	return h.mem.Apply(h.pid, shmem.Op{Kind: shmem.OpLL, Reg: reg}).Val
}

// SC implements machine.Port.
func (h *Handle) SC(reg int, v shmem.Value) (bool, shmem.Value) {
	r := h.mem.Apply(h.pid, shmem.Op{Kind: shmem.OpSC, Reg: reg, Arg: v})
	return r.OK, r.Val
}

// Validate performs validate(reg), returning link validity and value.
func (h *Handle) Validate(reg int) (bool, shmem.Value) {
	r := h.mem.Apply(h.pid, shmem.Op{Kind: shmem.OpValidate, Reg: reg})
	return r.OK, r.Val
}

// Read implements machine.Port (a validate with the boolean dropped).
func (h *Handle) Read(reg int) shmem.Value {
	_, v := h.Validate(reg)
	return v
}

// Swap implements machine.Port.
func (h *Handle) Swap(reg int, v shmem.Value) shmem.Value {
	return h.mem.Apply(h.pid, shmem.Op{Kind: shmem.OpSwap, Reg: reg, Arg: v}).Val
}
