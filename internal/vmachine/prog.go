package vmachine

// This file defines the compiler's source form: a small structured program
// representation in which algorithm bodies are (re-)expressed so they can
// be compiled once into a Chunk. The representation deliberately mirrors
// the machine.Env surface — every shared-memory expression corresponds to
// exactly one yield point — so a program and its direct-style twin emit
// identical action streams; package lockstep proves that equivalence
// mechanically.

// Program is a named algorithm body in source form.
type Program struct {
	// Name labels the compiled chunk (normally the algorithm name).
	Name string
	// Body is the statement sequence; it must end every control path in a
	// Return (the compiler appends nothing).
	Body []Stmt
}

// Expr is an expression node. Every shared-memory expression (TossE, LLE,
// ReadE, SwapE) is a yield point evaluated exactly once, in Go evaluation
// order (arguments before the operation, left to right).
type Expr interface{ isExpr() }

type (
	// ConstE is a literal value.
	ConstE struct{ V Value }
	// SelfE is the executing process id (Env.ID).
	SelfE struct{}
	// NProcsE is the process count (Env.N).
	NProcsE struct{}
	// HostE is the executing Exec's host value (Exec.SetHost), unboxed as
	// a register value would be (nil when none is set). Natives that need
	// per-run state take it as an argument instead of reaching for a
	// process global.
	HostE struct{}
	// VarE reads a program variable.
	VarE struct{ Name string }
	// TossE is a coin toss (Env.Toss), yielding an int64 outcome.
	TossE struct{}
	// LLE is LL(Reg) (Env.LL).
	LLE struct{ Reg Expr }
	// ReadE is Read(Reg): a validate whose boolean is discarded (Env.Read).
	ReadE struct{ Reg Expr }
	// SwapE is swap(Reg, Val), evaluating to the previous value (Env.Swap).
	SwapE struct{ Reg, Val Expr }
	// CallE invokes a registered native function.
	CallE struct {
		Fn   string
		Args []Expr
	}
	// EqE is structural equality, evaluating to a bool.
	EqE struct{ A, B Expr }
	// AddE is integer addition.
	AddE struct{ A, B Expr }
	// BandE is integer bitwise AND (coin-toss parity picks).
	BandE struct{ A, B Expr }
)

func (ConstE) isExpr()  {}
func (SelfE) isExpr()   {}
func (NProcsE) isExpr() {}
func (HostE) isExpr()   {}
func (VarE) isExpr()    {}
func (TossE) isExpr()   {}
func (LLE) isExpr()     {}
func (ReadE) isExpr()   {}
func (SwapE) isExpr()   {}
func (CallE) isExpr()   {}
func (EqE) isExpr()     {}
func (AddE) isExpr()    {}
func (BandE) isExpr()   {}

// Stmt is a statement node.
type Stmt interface{ isStmt() }

type (
	// AssignS evaluates E into variable Name (declaring it on first use).
	AssignS struct {
		Name string
		E    Expr
	}
	// SCS is SC(Reg, Val) with its two results (Env.SC): Ok and Prev name
	// the destination variables; either may be "" to discard that result.
	SCS struct {
		Ok, Prev string
		Reg, Val Expr
	}
	// ValidateS is validate(Reg) with its two results (Env.Validate).
	ValidateS struct {
		Ok, Val string
		Reg     Expr
	}
	// MoveS is move(Src, Dst) (Env.Move).
	MoveS struct{ Src, Dst Expr }
	// DoS evaluates E for its effect and discards the result.
	DoS struct{ E Expr }
	// IfS branches on a boolean condition.
	IfS struct {
		Cond       Expr
		Then, Else []Stmt
	}
	// LoopS repeats Body forever; exit via BreakS or ReturnS.
	LoopS struct{ Body []Stmt }
	// BreakS exits the innermost LoopS.
	BreakS struct{}
	// ReturnS terminates the process with E as its return value.
	ReturnS struct{ E Expr }
)

func (AssignS) isStmt()   {}
func (SCS) isStmt()       {}
func (ValidateS) isStmt() {}
func (MoveS) isStmt()     {}
func (DoS) isStmt()       {}
func (IfS) isStmt()       {}
func (LoopS) isStmt()     {}
func (BreakS) isStmt()    {}
func (ReturnS) isStmt()   {}
