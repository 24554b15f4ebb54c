package vmachine

import (
	"fmt"
)

// Opcode identifies one VM instruction.
type Opcode uint8

// The instruction set. Operand columns refer to Instr fields A/B/C/D;
// "yield" marks instructions that suspend the machine and publish a
// pending action to the scheduler (exactly the yield points of the
// direct-style interpreter).
//
//	OpConst    A=dst, B=const index          locals[A] = consts[B]
//	OpMov      A=dst, B=src                  locals[A] = locals[B]
//	OpSelf     A=dst                         locals[A] = Int(id)
//	OpNProcs   A=dst                         locals[A] = Int(n)
//	OpEq       A=dst, B=x, C=y               locals[A] = Bool(x == y)
//	OpAdd      A=dst, B=x, C=y               locals[A] = Int(x + y)
//	OpBand     A=dst, B=x, C=y               locals[A] = Int(x & y)
//	OpJump     A=target                      pc = A
//	OpJumpIfNot A=cond, B=target             if !locals[A] { pc = B }
//	OpCall     A=dst, B=native, C=base, D=n  locals[A] = native(locals[C:C+n])
//	OpToss     A=dst                         yield toss; locals[A] = I64(outcome)
//	OpLL       A=dst, B=reg                  yield LL(reg); locals[A] = value
//	OpSC       A=ok, B=prev, C=reg, D=val    yield SC(reg, val); locals[A], locals[B]
//	OpValidate A=ok, B=val, C=reg            yield validate(reg); locals[A], locals[B]
//	OpRead     A=dst, B=reg                  yield validate(reg); locals[A] = value
//	OpSwap     A=prev, B=reg, C=val          yield swap(reg, val); locals[A]
//	OpMove     A=src, B=dst                  yield move(src, dst)
//	OpReturn   A=src                         yield return locals[A]; terminal
//	OpHost     A=dst                         locals[A] = host value
const (
	OpConst Opcode = iota + 1
	OpMov
	OpSelf
	OpNProcs
	OpEq
	OpAdd
	OpBand
	OpJump
	OpJumpIfNot
	OpCall
	OpToss
	OpLL
	OpSC
	OpValidate
	OpRead
	OpSwap
	OpMove
	OpReturn
	OpHost
)

// String names the opcode in disassembly.
func (op Opcode) String() string {
	names := [...]string{
		OpConst: "CONST", OpMov: "MOV", OpSelf: "SELF", OpNProcs: "NPROCS",
		OpEq: "EQ", OpAdd: "ADD", OpBand: "BAND",
		OpJump: "JMP", OpJumpIfNot: "JNOT", OpCall: "CALL",
		OpToss: "TOSS", OpLL: "LL", OpSC: "SC", OpValidate: "VALIDATE",
		OpRead: "READ", OpSwap: "SWAP", OpMove: "MOVE", OpReturn: "RET",
		OpHost: "HOST",
	}
	if int(op) < len(names) && names[op] != "" {
		return names[op]
	}
	return fmt.Sprintf("Opcode(%d)", uint8(op))
}

// Instr is one fixed-width instruction. Operand meaning depends on Op (see
// the opcode table); unused operands are zero.
type Instr struct {
	Op         Opcode
	A, B, C, D int32
}

// Chunk is a compiled algorithm body: the instruction stream, the constant
// pool, and the resolved native functions its OpCall sites invoke. Chunks
// are immutable after Compile and may be shared read-only by any number of
// concurrently stepping Execs.
type Chunk struct {
	// Name labels the chunk (normally the algorithm name).
	Name string
	// Code is the instruction stream; execution starts at Code[0].
	Code []Instr
	// Consts is the constant pool, deduplicated by the compiler.
	Consts []Value
	// Natives are the resolved native functions, indexed by OpCall.B.
	Natives []NativeFunc
	// NativeNames parallels Natives (for disassembly and errors).
	NativeNames []string
	// NumLocals is the size of the locals array an Exec allocates.
	NumLocals int
}

// Verify checks chunk invariants independently of the compiler: every jump
// lands inside the code, every register/constant/native index is in range,
// and the final instruction cannot fall off the end. Compile always
// returns verified chunks; Verify exists so hand-assembled chunks (tests,
// future frontends) get the same guarantees.
func (c *Chunk) Verify() error {
	if len(c.Code) == 0 {
		return fmt.Errorf("vmachine: %s: empty chunk", c.Name)
	}
	slot := func(i int32) error {
		if i < 0 || int(i) >= c.NumLocals {
			return fmt.Errorf("local %d out of range [0,%d)", i, c.NumLocals)
		}
		return nil
	}
	target := func(i int32) error {
		if i < 0 || int(i) >= len(c.Code) {
			return fmt.Errorf("jump target %d out of range [0,%d)", i, len(c.Code))
		}
		return nil
	}
	for pc, in := range c.Code {
		var err error
		switch in.Op {
		case OpConst:
			if in.B < 0 || int(in.B) >= len(c.Consts) {
				err = fmt.Errorf("const %d out of range [0,%d)", in.B, len(c.Consts))
			} else {
				err = slot(in.A)
			}
		case OpMov:
			err = firstErr(slot(in.A), slot(in.B))
		case OpSelf, OpNProcs, OpToss, OpHost:
			err = slot(in.A)
		case OpEq, OpAdd, OpBand:
			err = firstErr(slot(in.A), slot(in.B), slot(in.C))
		case OpJump:
			err = target(in.A)
		case OpJumpIfNot:
			err = firstErr(slot(in.A), target(in.B))
		case OpCall:
			if in.B < 0 || int(in.B) >= len(c.Natives) {
				err = fmt.Errorf("native %d out of range [0,%d)", in.B, len(c.Natives))
			} else if in.D < 0 || in.C < 0 || int(in.C)+int(in.D) > c.NumLocals {
				err = fmt.Errorf("arg window [%d,%d) out of range", in.C, in.C+in.D)
			} else {
				err = slot(in.A)
			}
		case OpLL, OpRead:
			err = firstErr(slot(in.A), slot(in.B))
		case OpSC:
			err = firstErr(slot(in.A), slot(in.B), slot(in.C), slot(in.D))
		case OpValidate, OpSwap:
			err = firstErr(slot(in.A), slot(in.B), slot(in.C))
		case OpMove:
			err = firstErr(slot(in.A), slot(in.B))
		case OpReturn:
			err = slot(in.A)
		default:
			err = fmt.Errorf("unknown opcode %d", in.Op)
		}
		if err != nil {
			return fmt.Errorf("vmachine: %s: pc %d (%v): %w", c.Name, pc, in.Op, err)
		}
	}
	// Execution must never run off the end: the last instruction has to be
	// a return or an unconditional jump backwards into the chunk.
	last := c.Code[len(c.Code)-1]
	if last.Op != OpReturn && last.Op != OpJump {
		return fmt.Errorf("vmachine: %s: last instruction %v can fall off the end", c.Name, last.Op)
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
