package vmachine

import (
	"fmt"

	"jayanti98/internal/shmem"
)

// YieldKind classifies why an Exec suspended.
type YieldKind uint8

const (
	// YToss: the machine wants a coin-toss outcome; resume with ResumeToss.
	YToss YieldKind = iota + 1
	// YOp: the machine issued a shared-memory operation (Yield.Op); resume
	// with ResumeOp once the memory has applied it.
	YOp
	// YReturn: the machine terminated normally; Yield.Ret is the value.
	YReturn
	// YCrash: the body (or a native) panicked; Yield.Ret is the rendered
	// "panic: ..." message, exactly as the interpreter renders it.
	YCrash
)

// String names the yield kind.
func (k YieldKind) String() string {
	switch k {
	case YToss:
		return "toss"
	case YOp:
		return "op"
	case YReturn:
		return "return"
	case YCrash:
		return "crash"
	default:
		return fmt.Sprintf("YieldKind(%d)", uint8(k))
	}
}

// Yield is what an Exec hands the scheduler each time it suspends.
type Yield struct {
	Kind YieldKind
	Op   shmem.Op    // valid when Kind == YOp
	Ret  shmem.Value // valid when Kind == YReturn or YCrash
}

// Exec is one process instance executing a compiled chunk. Its entire
// mutable state is the program counter, a flat locals array, and a few words
// of resume bookkeeping — all copyable, which is what makes VM snapshots
// cheap compared to forking a goroutine-based machine.
//
// The lifecycle is a strict alternation: Start (or a Resume*) runs the
// bytecode until it yields; the caller services the yield and resumes with
// the matching Resume* call. YReturn and YCrash are terminal. Calling the
// wrong Resume* for the pending yield panics: that is a scheduler bug, not
// an algorithm crash.
type Exec struct {
	chunk  *Chunk
	id, n  int
	pc     int32
	locals []Value
	// host is the per-run value HostE evaluates to (see SetHost).
	host any

	// Resume bookkeeping: wait is the pending yield kind (0 before Start),
	// waitOp the suspended instruction's opcode, wa/wb its result slots.
	wait   YieldKind
	waitOp Opcode
	wa, wb int32
}

// NewExec creates a process instance for chunk. The chunk is only read;
// any number of Execs may share it across goroutines.
func NewExec(chunk *Chunk, id, n int) *Exec {
	return &Exec{
		chunk:  chunk,
		id:     id,
		n:      n,
		locals: make([]Value, chunk.NumLocals),
	}
}

// ID returns the executing process's identifier.
func (x *Exec) ID() int { return x.id }

// SetHost binds the value HostE evaluates to: the per-run state (an event
// log, a workload) that the chunk's natives receive as an argument. The
// chunk stays shared and immutable; only this Exec sees the binding. A
// forked Exec (Clone) is re-pointed at its own run's state with SetHost.
func (x *Exec) SetHost(h any) { x.host = h }

// Chunk returns the compiled code this Exec runs.
func (x *Exec) Chunk() *Chunk { return x.chunk }

// Start runs the chunk from the beginning until its first yield. It must be
// the first call on a fresh Exec and must not be repeated.
func (x *Exec) Start() Yield {
	if x.wait != 0 {
		panic("vmachine: Start on an already-started Exec")
	}
	return x.run()
}

// ResumeToss delivers a coin-toss outcome to an Exec suspended at YToss.
func (x *Exec) ResumeToss(outcome int64) Yield {
	if x.wait != YToss {
		panic(fmt.Sprintf("vmachine: ResumeToss while waiting on %v", x.wait))
	}
	x.locals[x.wa] = I64(outcome)
	x.wait = 0
	return x.run()
}

// ResumeOp delivers a shared-memory response to an Exec suspended at YOp.
func (x *Exec) ResumeOp(resp shmem.Response) Yield {
	if x.wait != YOp {
		panic(fmt.Sprintf("vmachine: ResumeOp while waiting on %v", x.wait))
	}
	switch x.waitOp {
	case OpLL, OpRead, OpSwap:
		x.locals[x.wa] = Unbox(resp.Val)
	case OpSC, OpValidate:
		x.locals[x.wa] = Bool(resp.OK)
		x.locals[x.wb] = Unbox(resp.Val)
	case OpMove:
		// Move returns only an acknowledgement.
	default:
		panic(fmt.Sprintf("vmachine: pending %v is not a memory operation", x.waitOp))
	}
	x.wait = 0
	return x.run()
}

// Terminal reports whether the Exec has returned or crashed.
func (x *Exec) Terminal() bool { return x.wait == YReturn || x.wait == YCrash }

// run executes instructions until the next yield. A panic anywhere inside —
// a native function, a type-confused operand, a corrupt-register decode —
// crashes the machine with the same "panic: %v" rendering the interpreter
// applies when an algorithm body panics.
func (x *Exec) run() (y Yield) {
	defer func() {
		if r := recover(); r != nil {
			x.wait = YCrash
			y = Yield{Kind: YCrash, Ret: fmt.Sprintf("panic: %v", r)}
		}
	}()
	code := x.chunk.Code
	locals := x.locals
	for {
		in := code[x.pc]
		switch in.Op {
		case OpConst:
			locals[in.A] = x.chunk.Consts[in.B]
		case OpMov:
			locals[in.A] = locals[in.B]
		case OpSelf:
			locals[in.A] = Int(x.id)
		case OpNProcs:
			locals[in.A] = Int(x.n)
		case OpHost:
			locals[in.A] = Unbox(x.host)
		case OpEq:
			locals[in.A] = Bool(locals[in.B].Equal(locals[in.C]))
		case OpAdd:
			locals[in.A] = intArith(locals[in.B], locals[in.C], locals[in.B].I+locals[in.C].I)
		case OpBand:
			locals[in.A] = intArith(locals[in.B], locals[in.C], locals[in.B].I&locals[in.C].I)
		case OpJump:
			x.pc = in.A
			continue
		case OpJumpIfNot:
			if !locals[in.A].Truthy() {
				x.pc = in.B
				continue
			}
		case OpCall:
			fn := x.chunk.Natives[in.B]
			locals[in.A] = fn(x.id, x.n, locals[in.C:in.C+in.D])
		case OpToss:
			x.suspend(YToss, in)
			x.pc++
			return Yield{Kind: YToss}
		case OpLL:
			return x.yieldOp(in, shmem.Op{Kind: shmem.OpLL, Reg: locals[in.B].AsInt()})
		case OpSC:
			return x.yieldOp(in, shmem.Op{Kind: shmem.OpSC, Reg: locals[in.C].AsInt(), Arg: locals[in.D].Box()})
		case OpValidate:
			return x.yieldOp(in, shmem.Op{Kind: shmem.OpValidate, Reg: locals[in.C].AsInt()})
		case OpRead:
			return x.yieldOp(in, shmem.Op{Kind: shmem.OpValidate, Reg: locals[in.B].AsInt()})
		case OpSwap:
			return x.yieldOp(in, shmem.Op{Kind: shmem.OpSwap, Reg: locals[in.B].AsInt(), Arg: locals[in.C].Box()})
		case OpMove:
			return x.yieldOp(in, shmem.Op{Kind: shmem.OpMove, Src: locals[in.A].AsInt(), Reg: locals[in.B].AsInt()})
		case OpReturn:
			x.wait = YReturn
			return Yield{Kind: YReturn, Ret: locals[in.A].Box()}
		default:
			panic(fmt.Sprintf("vmachine: %s: pc %d: unknown opcode %d", x.chunk.Name, x.pc, in.Op))
		}
		x.pc++
	}
}

func (x *Exec) suspend(kind YieldKind, in Instr) {
	x.wait = kind
	x.waitOp = in.Op
	x.wa = in.A
	x.wb = in.B
}

func (x *Exec) yieldOp(in Instr, op shmem.Op) Yield {
	x.suspend(YOp, in)
	x.pc++
	return Yield{Kind: YOp, Op: op}
}

// State is a complete, self-contained snapshot of an Exec's resumable state:
// flat arrays, no goroutine, no channels. Snapshots deep-copy set-kind
// locals (the only mutable payload a Value can carry), so a restored Exec
// and its origin never alias working state.
type State struct {
	PC     int32
	Wait   YieldKind
	WaitOp Opcode
	WA, WB int32
	Locals []Value
}

// Snapshot captures the Exec's state.
func (x *Exec) Snapshot() State {
	return State{
		PC:     x.pc,
		Wait:   x.wait,
		WaitOp: x.waitOp,
		WA:     x.wa,
		WB:     x.wb,
		Locals: copyLocals(x.locals),
	}
}

// Restore overwrites the Exec's state with a snapshot taken from an Exec of
// the same chunk. The snapshot remains valid and may be restored again.
// The zero State restores the state NewExec gives: pc 0, no pending yield
// and zero locals, ready for Start. The host binding is kept either way.
func (x *Exec) Restore(s State) {
	switch {
	case s.Locals == nil:
		clear(x.locals)
	case len(s.Locals) != len(x.locals):
		panic(fmt.Sprintf("vmachine: restore of %d-local state into %d-local exec", len(s.Locals), len(x.locals)))
	default:
		copy(x.locals, s.Locals)
		for i, v := range x.locals {
			if v.Kind == KSet {
				x.locals[i].Set = append(shmem.PidBits(nil), v.Set...)
			}
		}
	}
	x.pc = s.PC
	x.wait = s.Wait
	x.waitOp = s.WaitOp
	x.wa = s.WA
	x.wb = s.WB
}

// Clone returns an independent copy of the Exec, sharing only the immutable
// chunk, the immutable non-set values in its locals and its host binding.
// Exploration uses this to fork a machine at a branch point (see
// machine.Machine.Fork, which re-points the clone's host).
func (x *Exec) Clone() *Exec {
	c := *x
	c.locals = copyLocals(x.locals)
	return &c
}

func copyLocals(src []Value) []Value {
	out := make([]Value, len(src))
	copy(out, src)
	for i, v := range out {
		if v.Kind == KSet {
			out[i].Set = append(shmem.PidBits(nil), v.Set...)
		}
	}
	return out
}

// intArith types an arithmetic result: the result adopts the left operand's
// integer kind (matching Go's typed arithmetic, where a re-expressed
// `x + 1` converts the literal to x's type). Non-integer operands panic,
// which surfaces as a machine crash — the same way the direct-style twin
// would fail on a type-confused value.
func intArith(a, b Value, result int64) Value {
	if (a.Kind != KInt && a.Kind != KI64) || (b.Kind != KInt && b.Kind != KI64) {
		panic(fmt.Sprintf("vmachine: arithmetic on %v and %v values", a.Kind, b.Kind))
	}
	return Value{Kind: a.Kind, I: result}
}
