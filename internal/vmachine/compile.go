package vmachine

import "fmt"

// Compile lowers a Program into a verified Chunk: named variables become
// fixed local slots, expressions are flattened into three-address
// instructions over a stack-disciplined temporary region, constants are
// pooled and deduplicated, native calls are resolved against the registry,
// and structured control flow (if/loop/break) becomes patched jumps.
//
// Compilation happens once per algorithm (package-level in practice); the
// resulting chunk is immutable and shared by every process instance.
func Compile(p *Program) (*Chunk, error) {
	c := &compiler{
		name:      p.Name,
		vars:      make(map[string]int32),
		constIdx:  make(map[constKey]int32),
		nativeIdx: make(map[string]int32),
	}
	if err := c.collectVars(p.Body); err != nil {
		return nil, fmt.Errorf("vmachine: compile %s: %w", p.Name, err)
	}
	c.tempBase = c.nvars
	if err := c.stmts(p.Body); err != nil {
		return nil, fmt.Errorf("vmachine: compile %s: %w", p.Name, err)
	}
	chunk := &Chunk{
		Name:        p.Name,
		Code:        c.code,
		Consts:      c.consts,
		Natives:     c.natives,
		NativeNames: c.nativeNames,
		NumLocals:   int(c.nvars + c.maxTemp),
	}
	if err := chunk.Verify(); err != nil {
		return nil, fmt.Errorf("vmachine: compile %s: generated invalid code: %w", p.Name, err)
	}
	return chunk, nil
}

// MustCompile is Compile, panicking on error. Algorithm packages use it at
// package init, where a compile error is a programming bug.
func MustCompile(p *Program) *Chunk {
	chunk, err := Compile(p)
	if err != nil {
		panic(err)
	}
	return chunk
}

// constKey is the comparable identity of a poolable constant.
type constKey struct {
	kind Kind
	i    int64
	s    string
}

type compiler struct {
	name string
	code []Instr

	consts   []Value
	constIdx map[constKey]int32

	natives     []NativeFunc
	nativeNames []string
	nativeIdx   map[string]int32

	vars  map[string]int32
	nvars int32

	// Temporaries live above the named variables with stack discipline:
	// mark/release brackets expression evaluation, maxTemp sizes the frame.
	tempBase int32
	temp     int32
	maxTemp  int32

	// loops holds, per open loop, the pc of every break jump to patch.
	loops [][]int
}

// --- variable collection -------------------------------------------------

// collectVars assigns a slot to every variable the program ever writes.
// Allocation is a separate pass so reads of never-written variables are
// compile errors rather than silently-nil locals.
func (c *compiler) collectVars(body []Stmt) error {
	var walk func(ss []Stmt) error
	declare := func(name string) {
		if name == "" {
			return
		}
		if _, ok := c.vars[name]; !ok {
			c.vars[name] = c.nvars
			c.nvars++
		}
	}
	walk = func(ss []Stmt) error {
		for _, s := range ss {
			switch s := s.(type) {
			case AssignS:
				if s.Name == "" {
					return fmt.Errorf("assignment with empty variable name")
				}
				declare(s.Name)
			case SCS:
				declare(s.Ok)
				declare(s.Prev)
			case ValidateS:
				declare(s.Ok)
				declare(s.Val)
			case IfS:
				if err := walk(s.Then); err != nil {
					return err
				}
				if err := walk(s.Else); err != nil {
					return err
				}
			case LoopS:
				if err := walk(s.Body); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return walk(body)
}

// --- slot helpers --------------------------------------------------------

func (c *compiler) mark() int32 { return c.temp }

func (c *compiler) release(m int32) { c.temp = m }

func (c *compiler) allocTemp() int32 {
	slot := c.tempBase + c.temp
	c.temp++
	if c.temp > c.maxTemp {
		c.maxTemp = c.temp
	}
	return slot
}

// varSlot resolves a variable read.
func (c *compiler) varSlot(name string) (int32, error) {
	slot, ok := c.vars[name]
	if !ok {
		return 0, fmt.Errorf("read of undefined variable %q", name)
	}
	return slot, nil
}

// resultSlot returns the destination slot for an operation result variable;
// "" (discard) gets a temporary.
func (c *compiler) resultSlot(name string) (int32, error) {
	if name == "" {
		return c.allocTemp(), nil
	}
	return c.varSlot(name)
}

func (c *compiler) emit(in Instr) int {
	c.code = append(c.code, in)
	return len(c.code) - 1
}

func (c *compiler) constant(v Value) (int32, error) {
	switch v.Kind {
	case KNil, KInt, KI64, KBool, KStr:
	default:
		return 0, fmt.Errorf("constant of kind %v not poolable", v.Kind)
	}
	key := constKey{kind: v.Kind, i: v.I, s: v.S}
	if idx, ok := c.constIdx[key]; ok {
		return idx, nil
	}
	idx := int32(len(c.consts))
	c.consts = append(c.consts, v)
	c.constIdx[key] = idx
	return idx, nil
}

func (c *compiler) native(name string) (int32, error) {
	if idx, ok := c.nativeIdx[name]; ok {
		return idx, nil
	}
	fn, err := lookupNative(name)
	if err != nil {
		return 0, err
	}
	idx := int32(len(c.natives))
	c.natives = append(c.natives, fn)
	c.nativeNames = append(c.nativeNames, name)
	c.nativeIdx[name] = idx
	return idx, nil
}

// --- expressions ---------------------------------------------------------

// operand compiles e and returns the slot holding its value. A plain
// variable read is passed through without a copy; everything else lands in
// a temporary inside the caller's mark/release bracket.
func (c *compiler) operand(e Expr) (int32, error) {
	if v, ok := e.(VarE); ok {
		return c.varSlot(v.Name)
	}
	dst := c.allocTemp()
	if err := c.exprTo(e, dst); err != nil {
		return 0, err
	}
	return dst, nil
}

// exprTo compiles e, leaving its value in dst.
func (c *compiler) exprTo(e Expr, dst int32) error {
	switch e := e.(type) {
	case ConstE:
		idx, err := c.constant(e.V)
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpConst, A: dst, B: idx})
	case SelfE:
		c.emit(Instr{Op: OpSelf, A: dst})
	case NProcsE:
		c.emit(Instr{Op: OpNProcs, A: dst})
	case HostE:
		c.emit(Instr{Op: OpHost, A: dst})
	case VarE:
		slot, err := c.varSlot(e.Name)
		if err != nil {
			return err
		}
		if slot != dst {
			c.emit(Instr{Op: OpMov, A: dst, B: slot})
		}
	case TossE:
		c.emit(Instr{Op: OpToss, A: dst})
	case LLE:
		m := c.mark()
		reg, err := c.operand(e.Reg)
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpLL, A: dst, B: reg})
		c.release(m)
	case ReadE:
		m := c.mark()
		reg, err := c.operand(e.Reg)
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpRead, A: dst, B: reg})
		c.release(m)
	case SwapE:
		m := c.mark()
		reg, err := c.operand(e.Reg)
		if err != nil {
			return err
		}
		val, err := c.operand(e.Val)
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpSwap, A: dst, B: reg, C: val})
		c.release(m)
	case CallE:
		idx, err := c.native(e.Fn)
		if err != nil {
			return err
		}
		m := c.mark()
		// Arguments must occupy a contiguous window: reserve it first,
		// then fill left to right (Go evaluation order).
		base := c.tempBase + c.temp
		for range e.Args {
			c.allocTemp()
		}
		for i, arg := range e.Args {
			if err := c.exprTo(arg, base+int32(i)); err != nil {
				return err
			}
		}
		c.emit(Instr{Op: OpCall, A: dst, B: idx, C: base, D: int32(len(e.Args))})
		c.release(m)
	case EqE:
		return c.binop(OpEq, e.A, e.B, dst)
	case AddE:
		return c.binop(OpAdd, e.A, e.B, dst)
	case BandE:
		return c.binop(OpBand, e.A, e.B, dst)
	default:
		return fmt.Errorf("unknown expression %T", e)
	}
	return nil
}

func (c *compiler) binop(op Opcode, a, b Expr, dst int32) error {
	m := c.mark()
	x, err := c.operand(a)
	if err != nil {
		return err
	}
	y, err := c.operand(b)
	if err != nil {
		return err
	}
	c.emit(Instr{Op: op, A: dst, B: x, C: y})
	c.release(m)
	return nil
}

// --- statements ----------------------------------------------------------

func (c *compiler) stmts(ss []Stmt) error {
	for _, s := range ss {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) stmt(s Stmt) error {
	switch s := s.(type) {
	case AssignS:
		slot, err := c.varSlot(s.Name) // declared by collectVars
		if err != nil {
			return err
		}
		return c.exprTo(s.E, slot)
	case SCS:
		m := c.mark()
		reg, err := c.operand(s.Reg)
		if err != nil {
			return err
		}
		val, err := c.operand(s.Val)
		if err != nil {
			return err
		}
		ok, err := c.resultSlot(s.Ok)
		if err != nil {
			return err
		}
		prev, err := c.resultSlot(s.Prev)
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpSC, A: ok, B: prev, C: reg, D: val})
		c.release(m)
		return nil
	case ValidateS:
		m := c.mark()
		reg, err := c.operand(s.Reg)
		if err != nil {
			return err
		}
		ok, err := c.resultSlot(s.Ok)
		if err != nil {
			return err
		}
		val, err := c.resultSlot(s.Val)
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpValidate, A: ok, B: val, C: reg})
		c.release(m)
		return nil
	case MoveS:
		m := c.mark()
		src, err := c.operand(s.Src)
		if err != nil {
			return err
		}
		dst, err := c.operand(s.Dst)
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpMove, A: src, B: dst})
		c.release(m)
		return nil
	case DoS:
		m := c.mark()
		if _, err := c.operand(s.E); err != nil {
			return err
		}
		c.release(m)
		return nil
	case IfS:
		m := c.mark()
		cond, err := c.operand(s.Cond)
		if err != nil {
			return err
		}
		jnot := c.emit(Instr{Op: OpJumpIfNot, A: cond})
		c.release(m)
		if err := c.stmts(s.Then); err != nil {
			return err
		}
		if len(s.Else) == 0 {
			c.code[jnot].B = int32(len(c.code))
			return nil
		}
		jend := c.emit(Instr{Op: OpJump})
		c.code[jnot].B = int32(len(c.code))
		if err := c.stmts(s.Else); err != nil {
			return err
		}
		c.code[jend].A = int32(len(c.code))
		return nil
	case LoopS:
		start := int32(len(c.code))
		c.loops = append(c.loops, nil)
		if err := c.stmts(s.Body); err != nil {
			return err
		}
		c.emit(Instr{Op: OpJump, A: start})
		breaks := c.loops[len(c.loops)-1]
		c.loops = c.loops[:len(c.loops)-1]
		for _, pc := range breaks {
			c.code[pc].A = int32(len(c.code))
		}
		return nil
	case BreakS:
		if len(c.loops) == 0 {
			return fmt.Errorf("break outside loop")
		}
		pc := c.emit(Instr{Op: OpJump})
		c.loops[len(c.loops)-1] = append(c.loops[len(c.loops)-1], pc)
		return nil
	case ReturnS:
		m := c.mark()
		src, err := c.operand(s.E)
		if err != nil {
			return err
		}
		c.emit(Instr{Op: OpReturn, A: src})
		c.release(m)
		return nil
	default:
		return fmt.Errorf("unknown statement %T", s)
	}
}
