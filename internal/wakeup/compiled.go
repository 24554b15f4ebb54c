package wakeup

import (
	"jayanti98/internal/shmem"
	"jayanti98/internal/vmachine"
)

// This file holds the bytecode twins of the wakeup algorithms: each
// direct-style body in wakeup.go is re-expressed as a vmachine.Program and
// compiled once at package init. The constructors hand both forms to
// machine.NewCompiled, so a Machine can run either engine; package lockstep
// proves the two forms step-equivalent — identical actions, responses,
// digests and return values over every schedule it explores.
//
// The re-expression must preserve the yield sequence exactly, including
// evaluation order (Go arguments evaluate left to right) and the dynamic
// types of every value stored to shared memory or returned. Pid-set
// bookkeeping goes through natives that call the same EncodeBits/DecodeBits
// codecs as the bodies, so register contents — and panic messages on
// corrupt registers — are bit-identical across engines.

// registerPidsNatives installs the pid-set natives. It runs once, from the
// compiled-chunk initializer below.
func registerPidsNatives() {
	// pids.decode(dst, v): DecodeBits(v, dst) — clears dst (nil allowed)
	// and parses the register rendering v into it. A string is read in
	// place, without boxing it into an interface.
	vmachine.RegisterNative("pids.decode", func(_, _ int, args []vmachine.Value) vmachine.Value {
		if args[1].Kind == vmachine.KStr {
			return vmachine.Set(decodeString(args[1].S, setArg(args[0])))
		}
		return vmachine.Set(DecodeBits(args[1].Box(), setArg(args[0])))
	})
	// pids.encode(set): the canonical register rendering of set.
	vmachine.RegisterNative("pids.encode", func(_, _ int, args []vmachine.Value) vmachine.Value {
		return vmachine.Str(EncodeBits(setArg(args[0])))
	})
	// pids.add(set, pid): set ∪ {pid} in place (nil set allowed).
	vmachine.RegisterNative("pids.add", func(_, _ int, args []vmachine.Value) vmachine.Value {
		s := setArg(args[0])
		s.Add(args[1].AsInt())
		return vmachine.Set(s)
	})
	// pids.union(dst, src): dst ∪ src in place (nil dst allowed).
	vmachine.RegisterNative("pids.union", func(_, _ int, args []vmachine.Value) vmachine.Value {
		d := setArg(args[0])
		setArg(args[1]).Each(func(p int) { d.Add(p) })
		return vmachine.Set(d)
	})
	// pids.count(set): |set|.
	vmachine.RegisterNative("pids.count", func(_, _ int, args []vmachine.Value) vmachine.Value {
		return vmachine.Int(setArg(args[0]).Count())
	})
}

// setArg reads a set-valued native argument; a nil value is the empty set
// (mirroring `var set shmem.PidBits` in the direct-style bodies).
func setArg(v vmachine.Value) shmem.PidBits {
	if v.Kind == vmachine.KNil {
		return nil
	}
	return v.Set
}

// Expression shorthands for the programs below.
func vInt(v int) vmachine.Expr       { return vmachine.ConstE{V: vmachine.Int(v)} }
func vNil() vmachine.Expr            { return vmachine.ConstE{V: vmachine.Nil()} }
func vVar(name string) vmachine.Expr { return vmachine.VarE{Name: name} }

func setRegisterProgram() *vmachine.Program {
	// var set PidBits
	// for { set = decode(LL(0), set); set.Add(id)
	//       if ok, _ := SC(0, encode(set)); ok { return count==n ? 1 : 0 } }
	return &vmachine.Program{
		Name: "wakeup/set-register",
		Body: []vmachine.Stmt{
			vmachine.AssignS{Name: "set", E: vNil()},
			vmachine.LoopS{Body: []vmachine.Stmt{
				vmachine.AssignS{Name: "set", E: vmachine.CallE{Fn: "pids.decode", Args: []vmachine.Expr{vVar("set"), vmachine.LLE{Reg: vInt(setReg)}}}},
				vmachine.AssignS{Name: "set", E: vmachine.CallE{Fn: "pids.add", Args: []vmachine.Expr{vVar("set"), vmachine.SelfE{}}}},
				vmachine.SCS{Ok: "ok", Reg: vInt(setReg), Val: vmachine.CallE{Fn: "pids.encode", Args: []vmachine.Expr{vVar("set")}}},
				vmachine.IfS{Cond: vVar("ok"), Then: []vmachine.Stmt{
					vmachine.IfS{
						Cond: vmachine.EqE{A: vmachine.CallE{Fn: "pids.count", Args: []vmachine.Expr{vVar("set")}}, B: vmachine.NProcsE{}},
						Then: []vmachine.Stmt{vmachine.ReturnS{E: vInt(1)}},
					},
					vmachine.ReturnS{E: vInt(0)},
				}},
			}},
		},
	}
}

func doubleRegisterProgram() *vmachine.Program {
	// reg := toss & 1; insert id into register reg by LL/SC retry;
	// union := decode(read(0)) ∪ decode(read(1)); return |union|==n ? 1 : 0
	return &vmachine.Program{
		Name: "wakeup/double-register",
		Body: []vmachine.Stmt{
			vmachine.AssignS{Name: "reg", E: vmachine.BandE{A: vmachine.TossE{}, B: vmachine.ConstE{V: vmachine.I64(1)}}},
			vmachine.AssignS{Name: "set", E: vNil()},
			vmachine.LoopS{Body: []vmachine.Stmt{
				vmachine.AssignS{Name: "set", E: vmachine.CallE{Fn: "pids.decode", Args: []vmachine.Expr{vVar("set"), vmachine.LLE{Reg: vVar("reg")}}}},
				vmachine.AssignS{Name: "set", E: vmachine.CallE{Fn: "pids.add", Args: []vmachine.Expr{vVar("set"), vmachine.SelfE{}}}},
				vmachine.SCS{Ok: "ok", Reg: vVar("reg"), Val: vmachine.CallE{Fn: "pids.encode", Args: []vmachine.Expr{vVar("set")}}},
				vmachine.IfS{Cond: vVar("ok"), Then: []vmachine.Stmt{vmachine.BreakS{}}},
			}},
			vmachine.AssignS{Name: "union", E: vmachine.CallE{Fn: "pids.decode", Args: []vmachine.Expr{vNil(), vmachine.ReadE{Reg: vInt(0)}}}},
			vmachine.AssignS{Name: "other", E: vmachine.CallE{Fn: "pids.decode", Args: []vmachine.Expr{vNil(), vmachine.ReadE{Reg: vInt(1)}}}},
			vmachine.AssignS{Name: "union", E: vmachine.CallE{Fn: "pids.union", Args: []vmachine.Expr{vVar("union"), vVar("other")}}},
			vmachine.IfS{
				Cond: vmachine.EqE{A: vmachine.CallE{Fn: "pids.count", Args: []vmachine.Expr{vVar("union")}}, B: vmachine.NProcsE{}},
				Then: []vmachine.Stmt{vmachine.ReturnS{E: vInt(1)}},
			},
			vmachine.ReturnS{E: vInt(0)},
		},
	}
}

func cheaterProgram() *vmachine.Program {
	// swap(id, 1); return 1
	return &vmachine.Program{
		Name: "wakeup/cheater",
		Body: []vmachine.Stmt{
			vmachine.DoS{E: vmachine.SwapE{Reg: vmachine.SelfE{}, Val: vInt(1)}},
			vmachine.ReturnS{E: vInt(1)},
		},
	}
}

func moveCourierProgram() *vmachine.Program {
	// See MoveCourier in wakeup.go; own register is 10+id, relay is R1,
	// accumulator is R0.
	ownReg := vmachine.AddE{A: vInt(10), B: vmachine.SelfE{}}
	return &vmachine.Program{
		Name: "wakeup/move-courier",
		Body: []vmachine.Stmt{
			vmachine.AssignS{Name: "own", E: vmachine.CallE{Fn: "pids.add", Args: []vmachine.Expr{vNil(), vmachine.SelfE{}}}},
			vmachine.DoS{E: vmachine.SwapE{Reg: ownReg, Val: vmachine.CallE{Fn: "pids.encode", Args: []vmachine.Expr{vVar("own")}}}},
			vmachine.MoveS{Src: ownReg, Dst: vInt(1)},
			vmachine.AssignS{Name: "know", E: vmachine.CallE{Fn: "pids.add", Args: []vmachine.Expr{vNil(), vmachine.SelfE{}}}},
			vmachine.AssignS{Name: "relay", E: vmachine.CallE{Fn: "pids.decode", Args: []vmachine.Expr{vNil(), vmachine.ReadE{Reg: vInt(1)}}}},
			vmachine.AssignS{Name: "know", E: vmachine.CallE{Fn: "pids.union", Args: []vmachine.Expr{vVar("know"), vVar("relay")}}},
			vmachine.AssignS{Name: "set", E: vNil()},
			vmachine.LoopS{Body: []vmachine.Stmt{
				vmachine.AssignS{Name: "set", E: vmachine.CallE{Fn: "pids.decode", Args: []vmachine.Expr{vVar("set"), vmachine.LLE{Reg: vInt(0)}}}},
				vmachine.AssignS{Name: "know", E: vmachine.CallE{Fn: "pids.union", Args: []vmachine.Expr{vVar("know"), vVar("set")}}},
				vmachine.SCS{Ok: "ok", Reg: vInt(0), Val: vmachine.CallE{Fn: "pids.encode", Args: []vmachine.Expr{vVar("know")}}},
				vmachine.IfS{Cond: vVar("ok"), Then: []vmachine.Stmt{vmachine.BreakS{}}},
			}},
			vmachine.IfS{
				Cond: vmachine.EqE{A: vmachine.CallE{Fn: "pids.count", Args: []vmachine.Expr{vVar("know")}}, B: vmachine.NProcsE{}},
				Then: []vmachine.Stmt{vmachine.ReturnS{E: vInt(1)}},
			},
			vmachine.ReturnS{E: vInt(0)},
		},
	}
}

// compileChunks registers the natives and compiles every program; running
// it from the var initializer below guarantees registration precedes
// compilation regardless of file order.
func compileChunks() (setRegC, doubleRegC, cheaterC, courierC *vmachine.Chunk) {
	registerPidsNatives()
	return vmachine.MustCompile(setRegisterProgram()),
		vmachine.MustCompile(doubleRegisterProgram()),
		vmachine.MustCompile(cheaterProgram()),
		vmachine.MustCompile(moveCourierProgram())
}

var setRegisterChunk, doubleRegisterChunk, cheaterChunk, moveCourierChunk = compileChunks()
