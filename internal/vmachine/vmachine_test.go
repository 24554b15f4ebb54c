package vmachine

import (
	"strings"
	"testing"

	"jayanti98/internal/shmem"
)

func init() {
	RegisterNative("test.sum", func(_, _ int, args []Value) Value {
		total := 0
		for _, a := range args {
			total += a.AsInt()
		}
		return Int(total)
	})
	RegisterNative("test.panics", func(_, _ int, args []Value) Value {
		panic("native exploded")
	})
}

func mustYield(t *testing.T, y Yield, want YieldKind) Yield {
	t.Helper()
	if y.Kind != want {
		t.Fatalf("yield = %v (%+v), want %v", y.Kind, y, want)
	}
	return y
}

// TestReturnWithoutStepping: a body that returns immediately must yield
// YReturn from Start, with zero memory operations and zero tosses — the
// compiler edge case where the entire chunk is one instruction.
func TestReturnWithoutStepping(t *testing.T) {
	chunk := MustCompile(&Program{
		Name: "const-return",
		Body: []Stmt{ReturnS{E: ConstE{V: Int(42)}}},
	})
	x := NewExec(chunk, 0, 1)
	y := mustYield(t, x.Start(), YReturn)
	if y.Ret != 42 {
		t.Fatalf("Ret = %T(%v), want int(42)", y.Ret, y.Ret)
	}
	if x.wait != YReturn {
		t.Fatal("Exec not terminal after return")
	}
}

// TestTossAtChunkBoundaries: tosses as the very first and very last
// activity of a chunk — resume bookkeeping at both edges, and the int64
// dynamic type of outcomes must survive into the return value.
func TestTossAtChunkBoundaries(t *testing.T) {
	chunk := MustCompile(&Program{
		Name: "toss-edges",
		Body: []Stmt{
			AssignS{Name: "a", E: TossE{}},
			AssignS{Name: "b", E: TossE{}},
			ReturnS{E: AddE{A: VarE{Name: "a"}, B: VarE{Name: "b"}}},
		},
	})
	x := NewExec(chunk, 0, 1)
	mustYield(t, x.Start(), YToss)
	mustYield(t, x.ResumeToss(5), YToss)
	y := mustYield(t, x.ResumeToss(7), YReturn)
	if v, ok := y.Ret.(int64); !ok || v != 12 {
		t.Fatalf("Ret = %T(%v), want int64(12)", y.Ret, y.Ret)
	}
}

// TestOpSequenceAndTypes drives every memory opcode once and checks the
// ops the VM emits and the exact dynamic types it stores.
func TestOpSequenceAndTypes(t *testing.T) {
	chunk := MustCompile(&Program{
		Name: "all-ops",
		Body: []Stmt{
			AssignS{Name: "v", E: LLE{Reg: ConstE{V: Int(3)}}},
			SCS{Ok: "ok", Prev: "prev", Reg: ConstE{V: Int(3)}, Val: ConstE{V: Str("x")}},
			ValidateS{Ok: "vok", Val: "vv", Reg: ConstE{V: Int(3)}},
			AssignS{Name: "r", E: ReadE{Reg: ConstE{V: Int(3)}}},
			AssignS{Name: "old", E: SwapE{Reg: ConstE{V: Int(4)}, Val: ConstE{V: Int(9)}}},
			MoveS{Src: ConstE{V: Int(4)}, Dst: ConstE{V: Int(5)}},
			ReturnS{E: VarE{Name: "ok"}},
		},
	})
	x := NewExec(chunk, 2, 8)
	mem := shmem.New()
	y := x.Start()
	var ops []string
	for y.Kind == YOp {
		ops = append(ops, y.Op.String())
		y = x.ResumeOp(mem.Apply(2, y.Op))
	}
	want := []string{"LL(R3)", "SC(R3, x)", "validate(R3)", "validate(R3)", "swap(R4, 9)", "move(R4, R5)"}
	if strings.Join(ops, ";") != strings.Join(want, ";") {
		t.Fatalf("op sequence = %v, want %v", ops, want)
	}
	y = mustYield(t, y, YReturn)
	if v, ok := y.Ret.(bool); !ok || !v {
		t.Fatalf("Ret = %T(%v), want bool(true)", y.Ret, y.Ret)
	}
}

// TestNativePanicCrashes: a panicking native must surface as YCrash with
// the interpreter's "panic: ..." rendering.
func TestNativePanicCrashes(t *testing.T) {
	chunk := MustCompile(&Program{
		Name: "native-crash",
		Body: []Stmt{
			DoS{E: CallE{Fn: "test.panics"}},
			ReturnS{E: ConstE{V: Int(0)}},
		},
	})
	x := NewExec(chunk, 0, 1)
	y := mustYield(t, x.Start(), YCrash)
	if y.Ret != "panic: native exploded" {
		t.Fatalf("crash message = %q", y.Ret)
	}
	if x.wait != YCrash {
		t.Fatal("Exec not terminal after crash")
	}
}

// TestSnapshotRestoreRoundTrip: a clone taken mid-run and advanced with
// the same inputs as its origin reproduces identical yields, and so does
// the origin after Reset rewinds it to the start — the two ways a machine
// is forked and restarted.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	chunk := MustCompile(&Program{
		Name: "snap",
		Body: []Stmt{
			AssignS{Name: "t", E: TossE{}},
			AssignS{Name: "v", E: LLE{Reg: ConstE{V: Int(0)}}},
			SCS{Ok: "ok", Reg: ConstE{V: Int(0)}, Val: AddE{A: VarE{Name: "t"}, B: ConstE{V: I64(1)}}},
			ReturnS{E: VarE{Name: "t"}},
		},
	})
	x := NewExec(chunk, 0, 2)
	mustYield(t, x.Start(), YToss)
	mustYield(t, x.ResumeToss(3), YOp) // suspended at LL
	snap := x.Clone()

	run := func(x *Exec) []Yield {
		var ys []Yield
		y := x.ResumeOp(shmem.Response{OK: true, Val: nil})
		ys = append(ys, y)
		y = x.ResumeOp(shmem.Response{OK: true, Val: int64(3)})
		ys = append(ys, y)
		return ys
	}
	first := run(x)
	x.Reset()
	mustYield(t, x.Start(), YToss)
	mustYield(t, x.ResumeToss(3), YOp)
	for _, second := range [][]Yield{run(snap), run(x)} {
		for i := range first {
			if first[i].Kind != second[i].Kind || first[i].Op.String() != second[i].Op.String() || !shmem.ValuesEqual(first[i].Ret, second[i].Ret) {
				t.Fatalf("replay diverged at yield %d: %+v vs %+v", i, first[i], second[i])
			}
		}
		if v, ok := second[1].Ret.(int64); !ok || v != 3 {
			t.Fatalf("Ret = %T(%v), want int64(3)", second[1].Ret, second[1].Ret)
		}
	}
}

// TestCloneIndependence: a cloned Exec must not share mutable set state
// with its origin.
func TestCloneIndependence(t *testing.T) {
	x := NewExec(MustCompile(&Program{
		Name: "clone",
		Body: []Stmt{
			AssignS{Name: "v", E: LLE{Reg: ConstE{V: Int(0)}}},
			ReturnS{E: VarE{Name: "v"}},
		},
	}), 0, 1)
	mustYield(t, x.Start(), YOp)
	x.locals[0] = Set(shmem.PidBits{0b101})
	c := x.Clone()
	c.locals[0].Set.Add(1)
	if x.locals[0].Set.Contains(1) {
		t.Fatal("clone shares set backing with origin")
	}
	y := mustYield(t, x.ResumeOp(shmem.Response{OK: true, Val: "a"}), YReturn)
	if y.Ret != "a" {
		t.Fatalf("origin Ret = %v", y.Ret)
	}
	y = mustYield(t, c.ResumeOp(shmem.Response{OK: true, Val: "b"}), YReturn)
	if y.Ret != "b" {
		t.Fatalf("clone Ret = %v", y.Ret)
	}
}

// TestCompileErrors pins the compiler's rejection of malformed programs.
func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name string
		prog *Program
		want string
	}{
		{"undefined-variable", &Program{Name: "p", Body: []Stmt{ReturnS{E: VarE{Name: "ghost"}}}}, "undefined variable"},
		{"unknown-native", &Program{Name: "p", Body: []Stmt{ReturnS{E: CallE{Fn: "no.such"}}}}, "unknown native"},
		{"break-outside-loop", &Program{Name: "p", Body: []Stmt{BreakS{}, ReturnS{E: ConstE{V: Int(0)}}}}, "break outside loop"},
		{"fall-off-end", &Program{Name: "p", Body: []Stmt{AssignS{Name: "x", E: ConstE{V: Int(1)}}}}, "fall off the end"},
		{"empty-body", &Program{Name: "p"}, "empty chunk"},
		{"set-constant", &Program{Name: "p", Body: []Stmt{ReturnS{E: ConstE{V: Set(shmem.PidBits{1})}}}}, "not poolable"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile(c.prog)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Compile error = %v, want substring %q", err, c.want)
			}
		})
	}
}

// TestVerifyRejectsHandAssembled pins Verify's range checking on chunks the
// compiler never produces.
func TestVerifyRejectsHandAssembled(t *testing.T) {
	cases := []struct {
		name  string
		chunk *Chunk
		want  string
	}{
		{"jump-out-of-range", &Chunk{Name: "c", Code: []Instr{{Op: OpJump, A: 7}}, NumLocals: 1}, "jump target"},
		{"slot-out-of-range", &Chunk{Name: "c", Code: []Instr{{Op: OpSelf, A: 3}, {Op: OpReturn}}, NumLocals: 1}, "local 3 out of range"},
		{"const-out-of-range", &Chunk{Name: "c", Code: []Instr{{Op: OpConst, B: 0}, {Op: OpReturn}}, NumLocals: 1}, "const 0 out of range"},
		{"native-out-of-range", &Chunk{Name: "c", Code: []Instr{{Op: OpCall}, {Op: OpReturn}}, NumLocals: 1}, "native 0 out of range"},
		{"unknown-opcode", &Chunk{Name: "c", Code: []Instr{{Op: Opcode(200)}, {Op: OpReturn}}, NumLocals: 1}, "unknown opcode"},
		{"fall-off-end", &Chunk{Name: "c", Code: []Instr{{Op: OpSelf}}, NumLocals: 1}, "fall off the end"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.chunk.Verify()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Verify = %v, want substring %q", err, c.want)
			}
		})
	}
}

// TestControlFlow compiles nested loops/ifs with breaks and natives and
// checks the computed result: sum of 0..4 via a loop with a conditional
// break.
func TestControlFlow(t *testing.T) {
	chunk := MustCompile(&Program{
		Name: "sum-loop",
		Body: []Stmt{
			AssignS{Name: "i", E: ConstE{V: Int(0)}},
			AssignS{Name: "sum", E: ConstE{V: Int(0)}},
			LoopS{Body: []Stmt{
				IfS{
					Cond: EqE{A: VarE{Name: "i"}, B: ConstE{V: Int(5)}},
					Then: []Stmt{BreakS{}},
				},
				AssignS{Name: "sum", E: CallE{Fn: "test.sum", Args: []Expr{VarE{Name: "sum"}, VarE{Name: "i"}}}},
				AssignS{Name: "i", E: AddE{A: VarE{Name: "i"}, B: ConstE{V: Int(1)}}},
			}},
			ReturnS{E: VarE{Name: "sum"}},
		},
	})
	x := NewExec(chunk, 0, 1)
	y := mustYield(t, x.Start(), YReturn)
	if y.Ret != 10 {
		t.Fatalf("Ret = %T(%v), want int(10)", y.Ret, y.Ret)
	}
}

// TestResumeMisuse: delivering the wrong resume kind is a scheduler bug and
// must panic loudly rather than crash the machine.
func TestResumeMisuse(t *testing.T) {
	chunk := MustCompile(&Program{
		Name: "misuse",
		Body: []Stmt{
			AssignS{Name: "t", E: TossE{}},
			ReturnS{E: VarE{Name: "t"}},
		},
	})
	x := NewExec(chunk, 0, 1)
	mustYield(t, x.Start(), YToss)
	defer func() {
		if recover() == nil {
			t.Fatal("ResumeOp on pending toss did not panic")
		}
	}()
	x.ResumeOp(shmem.Response{})
}

// TestValueBoxRoundTrip: Box∘Unbox must restore the exact dynamic type for
// every scalar kind, and KSet must refuse to box.
func TestValueBoxRoundTrip(t *testing.T) {
	for _, v := range []shmem.Value{nil, int(7), int64(7), true, false, "s", []int{1}} {
		got := Unbox(v).Box()
		if !shmem.ValuesEqual(v, got) {
			t.Fatalf("round trip %T(%v) -> %T(%v)", v, v, got, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("boxing a KSet did not panic")
		}
	}()
	Set(shmem.PidBits{1}).Box()
}

// TestHostBinding: HostE evaluates to the Exec's own host binding — nil
// before SetHost — and a clone re-pointed with SetHost sees its new host
// while the origin keeps the old one.
func TestHostBinding(t *testing.T) {
	chunk := MustCompile(&Program{
		Name: "host",
		Body: []Stmt{
			DoS{E: TossE{}},
			ReturnS{E: HostE{}},
		},
	})
	unbound := NewExec(chunk, 0, 1)
	mustYield(t, unbound.Start(), YToss)
	if y := mustYield(t, unbound.ResumeToss(0), YReturn); y.Ret != nil {
		t.Fatalf("unbound host = %v, want nil", y.Ret)
	}
	x := NewExec(chunk, 0, 1)
	x.SetHost("origin")
	mustYield(t, x.Start(), YToss)
	c := x.Clone()
	c.SetHost("fork")
	if y := mustYield(t, c.ResumeToss(0), YReturn); y.Ret != "fork" {
		t.Fatalf("re-pointed clone read host %v, want fork", y.Ret)
	}
	if y := mustYield(t, x.ResumeToss(0), YReturn); y.Ret != "origin" {
		t.Fatalf("origin read host %v after its clone was re-pointed", y.Ret)
	}
}
