// Package machine implements the process model of Section 3 of the paper.
//
// A process is a state machine whose next step is either (1) a local coin
// toss, whose outcome is drawn from COIN-RANGE, or (2) an operation on
// shared memory, after which it receives a response and changes state; a
// process in a termination state has no next step.
//
// Algorithms are written in natural direct style as a function of an Env
// (see Body); the package turns each into a resumable Machine that a
// scheduler single-steps. The scheduler observes the machine's pending
// Action, executes it against whatever memory it manages, and delivers the
// outcome. This inversion gives schedulers — in particular the adversary of
// Section 5 — total control over interleaving while keeping algorithm code
// readable.
//
// Two engines can sit behind a Machine, and the algorithm picks one (see
// Start): the VM engine single-steps a compiled bytecode chunk in-line
// (package vmachine) and runs every algorithm that carries one
// (NewCompiled, or NewHosted for a chunk bound to per-run state); the
// goroutine engine parks any other direct-style body on its own goroutine
// and shuttles actions and responses over channels. Schedulers cannot tell
// the two apart — package lockstep proves that statement mechanically by
// running a compiled algorithm's body, wrapped in New, against its chunk.
// A VM machine's whole state is copyable, so it can also be forked
// (Machine.Fork); a goroutine machine cannot.
//
// A Machine also records the full history of inputs it consumed and actions
// it emitted. Two machines running the same algorithm that consumed
// identical histories are in identical states, so history equality is the
// operational form of the state equality used by the Indistinguishability
// Lemma (Lemma 5.2).
package machine

import (
	"fmt"

	"jayanti98/internal/shmem"
)

// ActionKind classifies a machine's pending step.
type ActionKind int

// The three kinds of pending actions, plus ActCrash reported when the
// algorithm body panics (a bug in the algorithm, surfaced loudly).
const (
	ActToss ActionKind = iota + 1
	ActOp
	ActReturn
	ActCrash
)

// String names the action kind.
func (k ActionKind) String() string {
	switch k {
	case ActToss:
		return "toss"
	case ActOp:
		return "op"
	case ActReturn:
		return "return"
	case ActCrash:
		return "crash"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// Action is a machine's pending step: a coin toss (Kind ActToss), a
// shared-memory operation (Kind ActOp, with Op set), or termination
// (Kind ActReturn, with Ret set to the process's return value).
type Action struct {
	Kind ActionKind
	Op   shmem.Op
	Ret  shmem.Value
}

// TossAssignment supplies coin-toss outcomes: A(p, j) is the outcome of the
// j-th toss (0-indexed) by process p, exactly the toss assignments of
// Section 5.2. Deterministic algorithms never consult it.
type TossAssignment func(pid, j int) int64

// ZeroTosses is the toss assignment that always returns 0; adequate for
// deterministic algorithms.
func ZeroTosses(int, int) int64 { return 0 }

// Env is the interface an algorithm body uses to interact with the world.
// All shared-memory helpers block until the scheduler performs the op and
// delivers the response.
type Env struct {
	id int
	n  int
	g  *goDriver
}

// ID returns the executing process's identifier in [0, N).
func (e *Env) ID() int { return e.id }

// N returns the number of processes in the system.
func (e *Env) N() int { return e.n }

// Toss performs a local coin toss and returns its outcome.
func (e *Env) Toss() int64 { return e.g.yield(Action{Kind: ActToss}).toss }

// Do performs a raw shared-memory operation.
func (e *Env) Do(op shmem.Op) shmem.Response { return e.g.yield(Action{Kind: ActOp, Op: op}).resp }

// LL performs LL(reg) and returns the register's value.
func (e *Env) LL(reg int) shmem.Value {
	return e.Do(shmem.Op{Kind: shmem.OpLL, Reg: reg}).Val
}

// SC performs SC(reg, v); it returns the success boolean and the register's
// previous value (the strengthened response of Section 3).
func (e *Env) SC(reg int, v shmem.Value) (bool, shmem.Value) {
	r := e.Do(shmem.Op{Kind: shmem.OpSC, Reg: reg, Arg: v})
	return r.OK, r.Val
}

// Validate performs validate(reg); it returns the link-validity boolean and
// the register's current value. Validate(reg) is also the model's read.
func (e *Env) Validate(reg int) (bool, shmem.Value) {
	r := e.Do(shmem.Op{Kind: shmem.OpValidate, Reg: reg})
	return r.OK, r.Val
}

// Read returns the current value of reg (a validate, discarding the boolean).
func (e *Env) Read(reg int) shmem.Value {
	_, v := e.Validate(reg)
	return v
}

// Swap performs swap(reg, v) and returns the register's previous value.
func (e *Env) Swap(reg int, v shmem.Value) shmem.Value {
	return e.Do(shmem.Op{Kind: shmem.OpSwap, Reg: reg, Arg: v}).Val
}

// Move performs move(src, dst): value(src) is copied into dst.
func (e *Env) Move(src, dst int) {
	e.Do(shmem.Op{Kind: shmem.OpMove, Src: src, Reg: dst})
}

// Port is the capability surface that reusable building blocks (universal
// constructions, shared-object clients) program against: the five
// shared-memory operations plus process identity. *Env implements Port on
// the simulated memory; llsc.Handle implements it on the concurrent memory,
// so the same construction code runs under the adversary and under real
// goroutines.
type Port interface {
	// ID returns the calling process's identifier in [0, N).
	ID() int
	// N returns the number of processes sharing the memory.
	N() int
	// LL performs LL(reg) and returns the register's value.
	LL(reg int) shmem.Value
	// SC performs SC(reg, v), returning success and the previous value.
	SC(reg int, v shmem.Value) (bool, shmem.Value)
	// Validate performs validate(reg), returning link validity and value.
	Validate(reg int) (bool, shmem.Value)
	// Read returns the current value of reg (a validate, boolean dropped).
	Read(reg int) shmem.Value
	// Swap performs swap(reg, v) and returns the previous value.
	Swap(reg int, v shmem.Value) shmem.Value
	// Move performs move(src, dst).
	Move(src, dst int)
}

var _ Port = (*Env)(nil)

// Body is an algorithm written in direct style. It runs as process e.ID()
// of e.N() and returns the process's return value. Bodies must interact
// with the outside world only through the Env and must not block on
// anything else.
type Body func(e *Env) shmem.Value

// Algorithm is a named distributed algorithm: a factory of process bodies.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Run is the code of process id (captured inside the Env).
	Run(e *Env) shmem.Value
}

type funcAlgorithm struct {
	name string
	body Body
}

func (a *funcAlgorithm) Name() string           { return a.name }
func (a *funcAlgorithm) Run(e *Env) shmem.Value { return a.body(e) }

// New wraps a Body as a named Algorithm.
func New(name string, body Body) Algorithm {
	return &funcAlgorithm{name: name, body: body}
}

// driver is the engine behind a Machine: it produces the next pending
// action and accepts the scheduler's inputs. goDriver runs the direct-style
// body on a goroutine; vmDriver steps a compiled chunk in-line. All
// bookkeeping (pending-action caching, terminal state, step and toss
// counts, the history digest) lives in Machine itself, so the two engines
// cannot diverge in what they record.
type driver interface {
	// next blocks until the engine's next action is available.
	next() Action
	// toss delivers a coin-toss outcome for a pending ActToss.
	toss(outcome int64)
	// resp delivers a response for a pending ActOp.
	resp(r shmem.Response)
	// close abandons the engine, reclaiming any resources; idempotent.
	close()
}

// Machine is one resumable process. Create with Start, drive with
// Peek/DeliverToss/DeliverOpResponse, and always Close when done with it
// (Close is idempotent and safe on terminated machines).
//
// Machine is not safe for concurrent use by multiple scheduler goroutines.
type Machine struct {
	id     int
	drv    driver
	engine string

	pending    Action
	hasPending bool
	done       bool
	ret        shmem.Value
	crash      error
	numTosses  int
	steps      int
	events     int
	dig        digest
	noHistory  bool
}

// Start launches process id of n running alg. The algorithm picks the
// engine: a Compiled algorithm runs its chunk on the VM, bound to its host
// (NewHosted); any other runs its body on a goroutine.
func Start(alg Algorithm, id, n int) *Machine {
	m := &Machine{id: id, dig: newDigest()}
	if c, ok := alg.(Compiled); ok {
		var host any
		if ca, ok := alg.(*compiledAlgorithm); ok {
			host = ca.host
		}
		m.drv = startVMDriver(c.Chunk(), id, n, host)
		m.engine = "vm"
	} else {
		m.drv = startGoDriver(alg, id, n)
		m.engine = "goroutine"
	}
	return m
}

// ID returns the process identifier.
func (m *Machine) ID() int { return m.id }

// EngineName reports which engine is driving this machine: "goroutine" or
// "vm".
func (m *Machine) EngineName() string { return m.engine }

// DisableHistory turns off history-key maintenance for this machine. Pure
// measurement runs (step-count sweeps over large n) use it to avoid paying
// for digesting every delivered value; runs that will be compared with
// CheckIndist must keep history enabled. Call before the first Peek.
func (m *Machine) DisableHistory() { m.noHistory = true }

// Peek blocks until the machine's next pending action is available and
// returns it without consuming it. After the machine terminates (or
// crashes), Peek keeps returning the final action.
func (m *Machine) Peek() Action {
	if m.hasPending {
		return m.pending
	}
	if m.done {
		if m.crash != nil {
			return Action{Kind: ActCrash, Ret: m.crash.Error()}
		}
		return Action{Kind: ActReturn, Ret: m.ret}
	}
	a := m.drv.next()
	switch a.Kind {
	case ActReturn:
		m.done = true
		m.ret = a.Ret
		m.recordReturn(a.Ret)
		return a
	case ActCrash:
		m.done = true
		m.crash = fmt.Errorf("%v", a.Ret)
		m.recordCrash(a.Ret)
		return a
	default:
		m.pending = a
		m.hasPending = true
		return a
	}
}

// DeliverToss consumes a pending ActToss with the given outcome.
// It panics if the pending action is not a toss — that is a scheduler bug.
func (m *Machine) DeliverToss(outcome int64) {
	a := m.Peek()
	if a.Kind != ActToss {
		panic(fmt.Sprintf("machine %d: DeliverToss but pending action is %v", m.id, a.Kind))
	}
	m.hasPending = false
	m.numTosses++
	m.recordToss(outcome)
	m.drv.toss(outcome)
}

// DeliverOpResponse consumes a pending ActOp with the given response.
// It panics if the pending action is not an op — that is a scheduler bug.
func (m *Machine) DeliverOpResponse(r shmem.Response) {
	a := m.Peek()
	if a.Kind != ActOp {
		panic(fmt.Sprintf("machine %d: DeliverOpResponse but pending action is %v", m.id, a.Kind))
	}
	m.hasPending = false
	m.steps++
	m.recordOp(a.Op, r)
	m.drv.resp(r)
}

// Terminated reports whether the process has reached a termination state.
func (m *Machine) Terminated() bool {
	return m.done && m.crash == nil
}

// Crashed returns the panic error if the algorithm body panicked, else nil.
func (m *Machine) Crashed() error { return m.crash }

// ReturnValue returns the process's return value; valid once Terminated.
func (m *Machine) ReturnValue() shmem.Value { return m.ret }

// NumTosses returns the number of coin tosses performed so far —
// numtosses(p, ·) of Section 5.5.
func (m *Machine) NumTosses() int { return m.numTosses }

// Steps returns the number of shared-memory operations completed so far.
func (m *Machine) Steps() int { return m.steps }

// HistoryKey returns a digest of everything the process has observed and
// emitted so far (event count plus a 64-bit FNV-1a hash of the injectively
// encoded event stream; see digest.go). Equal histories imply equal local
// states, so HistoryKey equality is the operational state equality of
// Lemma 5.2; the digest makes the comparison O(1) per round instead of
// quadratic in run length. It returns "disabled" after DisableHistory.
func (m *Machine) HistoryKey() string {
	if m.noHistory {
		return "disabled"
	}
	return fmt.Sprintf("ev%d:%016x", m.events, m.dig.sum)
}

// HistoryDigest returns the raw components of HistoryKey — the event count
// and the running FNV-1a sum — plus whether history tracking is enabled
// (false after DisableHistory). Callers that fold many digests into a
// compact binary key (the exploration harness's memoization state) use it
// to avoid the per-call string formatting of HistoryKey.
func (m *Machine) HistoryDigest() (events int, sum uint64, enabled bool) {
	if m.noHistory {
		return 0, 0, false
	}
	return m.events, m.dig.sum, true
}

// Fork returns an independent copy of a VM machine: its Exec (bound to
// host, the fork's own per-run state; see NewHosted), pending action,
// terminal state, step and toss counts and history digest. The fork and m
// share only immutable values, so stepping either never changes the
// other, and a fork stepped along the same inputs as m reports the same
// actions, counts and digests. Fork returns nil for a goroutine machine:
// a body parked mid-call on its goroutine cannot be copied.
func (m *Machine) Fork(host any) *Machine {
	d, ok := m.drv.(*vmDriver)
	if !ok {
		return nil
	}
	f := *m
	f.drv = d.fork(host)
	f.dig = digest{sum: m.dig.sum} // the render scratch is per machine
	return &f
}

// Close abandons the machine: any underlying goroutine is unwound and
// reclaimed. Close is idempotent and must be called (directly or via a
// runner) for every started machine.
func (m *Machine) Close() { m.drv.close() }

// StartAll starts machines for processes 0..n-1 of alg.
func StartAll(alg Algorithm, n int) []*Machine {
	ms := make([]*Machine, n)
	for i := 0; i < n; i++ {
		ms[i] = Start(alg, i, n)
	}
	return ms
}

// CloseAll closes every machine in ms.
func CloseAll(ms []*Machine) {
	for _, m := range ms {
		m.Close()
	}
}
