package universal

import (
	"fmt"

	"jayanti98/internal/objtype"
	"jayanti98/internal/vmachine"
)

// This file holds the bytecode twins of the constructions' Invoke methods,
// in the style of wakeup/compiled.go and algos/tas/compiled.go. Each twin
// is a statement list (InvokeStmts) that a caller splices into its own
// vmachine.Program: package explore builds its construction bodies from
// them, and package lockstep's tests hold them step-equivalent to Invoke.
//
// The re-expression keeps the yield sequence of Invoke exactly — every
// Read/LL/SC/Swap is one yield point here, in the same order — and every
// piece of local Go work becomes one native that does exactly what the Go
// line it mirrors does: asLog right after each read, merge where Invoke
// merges, nextSeq/Contains where Invoke scans, and the sequential-spec
// replay last. Herlihy's twin collects all n announce logs and merges once,
// like Invoke; merging them one at a time is quadratic in n.
//
// The twins are instance-independent, so a caller's chunks compile once at
// package init. The construction instance — its type, n and base register
// — comes from the Exec's host value (vmachine.HostE), which must
// implement Host. Locals hold only immutable values (logs, ops, and the
// persistent announce list), so a cloned Exec shares them safely.

// Host is what the host value of a compiled construction body provides:
// the construction instance whose Invoke the twin performs.
type Host interface {
	Construction() Construction
}

// params is what the twins' natives read of a construction. Every
// construction implements it; the broken Group-Update inherits
// GroupUpdate's.
type params interface {
	params() (typ objtype.Type, n, base int)
}

func (c *Central) params() (objtype.Type, int, int)     { return c.typ, c.n, c.base }
func (g *GroupUpdate) params() (objtype.Type, int, int) { return g.typ, g.n, g.base }
func (h *Herlihy) params() (objtype.Type, int, int)     { return h.typ, h.n, h.base }

// announceList is Herlihy's `announced` slice as a persistent list: each
// collect allocates one immutable cell, so a forked Exec can share it.
type announceList struct {
	log  Log
	prev *announceList
	len  int
}

// logs returns the collected logs in collection order.
func (l *announceList) logs() []Log {
	if l == nil {
		return nil
	}
	out := make([]Log, l.len)
	for ; l != nil; l = l.prev {
		out[l.len-1] = l.log
	}
	return out
}

// Argument readers of the natives below.
func logArg(v vmachine.Value) Log       { return asLog(v.Box()) }
func consArg(v vmachine.Value) params   { return v.Any.(params) }
func opArg(v vmachine.Value) objtype.Op { return v.Any.(objtype.Op) }
func logVal(l Log) vmachine.Value       { return vmachine.Value{Kind: vmachine.KAny, Any: l} }
func listArg(v vmachine.Value) *announceList {
	if v.Kind == vmachine.KNil {
		return nil
	}
	return v.Any.(*announceList)
}

// init installs the twins' natives, so that packages splicing a twin into
// their programs can compile them at their own init.
func init() {
	reg := vmachine.RegisterNative
	// universal.cons(host): the host's construction.
	reg("universal.cons", func(_, _ int, args []vmachine.Value) vmachine.Value {
		return vmachine.Value{Kind: vmachine.KAny, Any: args[0].Any.(Host).Construction()}
	})
	// universal.base(cons), universal.n(cons): the construction's first
	// register and process count.
	reg("universal.base", func(_, _ int, args []vmachine.Value) vmachine.Value {
		_, _, base := consArg(args[0]).params()
		return vmachine.Int(base)
	})
	reg("universal.n", func(_, _ int, args []vmachine.Value) vmachine.Value {
		_, n, _ := consArg(args[0]).params()
		return vmachine.Int(n)
	})
	// universal.leaf(cons): GroupUpdate's checkedLeaf(self).
	reg("universal.leaf", func(id, _ int, args []vmachine.Value) vmachine.Value {
		return vmachine.Int(args[0].Any.(interface{ checkedLeaf(int) int }).checkedLeaf(id))
	})
	// universal.half(v): v / 2, the parent of heap node v.
	reg("universal.half", func(_, _ int, args []vmachine.Value) vmachine.Value {
		return vmachine.Int(args[0].AsInt() / 2)
	})
	// universal.log(v): asLog(v), panicking on a non-log register value.
	reg("universal.log", func(_, _ int, args []vmachine.Value) vmachine.Value {
		logArg(args[0])
		return args[0]
	})
	// universal.len(log): len(log), the next sequence number in a
	// single-writer announce log.
	reg("universal.len", func(_, _ int, args []vmachine.Value) vmachine.Value {
		return vmachine.Int(len(logArg(args[0])))
	})
	// universal.nextSeq(log, pid) and universal.contains(log, pid, seq).
	reg("universal.nextSeq", func(_, _ int, args []vmachine.Value) vmachine.Value {
		return vmachine.Int(nextSeq(logArg(args[0]), args[1].AsInt()))
	})
	reg("universal.contains", func(_, _ int, args []vmachine.Value) vmachine.Value {
		return vmachine.Bool(logArg(args[0]).Contains(args[1].AsInt(), args[2].AsInt()))
	})
	// universal.add(log, pid, seq, op): merge(log, Log{{pid, seq, op}}).
	reg("universal.add", func(_, _ int, args []vmachine.Value) vmachine.Value {
		rec := Record{Pid: args[1].AsInt(), Seq: args[2].AsInt(), Op: opArg(args[3])}
		return logVal(merge(logArg(args[0]), Log{rec}))
	})
	// universal.merge(base, extra...): merge(base, extra...).
	reg("universal.merge", func(_, _ int, args []vmachine.Value) vmachine.Value {
		extras := make([]Log, len(args)-1)
		for i := range extras {
			extras[i] = logArg(args[i+1])
		}
		return logVal(merge(logArg(args[0]), extras...))
	})
	// universal.collect(list, v): append(announced, asLog(v)).
	reg("universal.collect", func(_, _ int, args []vmachine.Value) vmachine.Value {
		l := listArg(args[0])
		n := 1
		if l != nil {
			n = l.len + 1
		}
		return vmachine.Value{Kind: vmachine.KAny, Any: &announceList{log: logArg(args[1]), prev: l, len: n}}
	})
	// universal.mergeAll(base, list): merge(base, announced...).
	reg("universal.mergeAll", func(_, _ int, args []vmachine.Value) vmachine.Value {
		return logVal(merge(logArg(args[0]), listArg(args[1]).logs()...))
	})
	// universal.replay(cons, log, pid, seq): replayResponse over the log.
	reg("universal.replay", func(_, _ int, args []vmachine.Value) vmachine.Value {
		typ, n, _ := consArg(args[0]).params()
		return vmachine.Unbox(replayResponse(typ, n, logArg(args[1]), args[2].AsInt(), args[3].AsInt()))
	})
}

// Expression shorthands (the wakeup/compiled.go idiom).
func vInt(v int) vmachine.Expr       { return vmachine.ConstE{V: vmachine.Int(v)} }
func vVar(name string) vmachine.Expr { return vmachine.VarE{Name: name} }
func call(fn string, args ...vmachine.Expr) vmachine.Expr {
	return vmachine.CallE{Fn: fn, Args: args}
}
func set(name string, e vmachine.Expr) vmachine.Stmt { return vmachine.AssignS{Name: name, E: e} }
func add(a, b vmachine.Expr) vmachine.Expr           { return vmachine.AddE{A: a, B: b} }

// asLogOf is `asLog(e)`: the register value checked right after its read.
func asLogOf(e vmachine.Expr) vmachine.Expr { return call("universal.log", e) }

// ifBreak is `if cond { break }`.
func ifBreak(cond vmachine.Expr) vmachine.Stmt {
	return vmachine.IfS{Cond: cond, Then: []vmachine.Stmt{vmachine.BreakS{}}}
}

// InvokeStmts returns the compiled twin of the named construction's
// Invoke (Names(), or "group-update-broken" under -tags mutation): the
// statements perform the operation held in variable op on behalf of the
// executing process and leave its response in variable resp. Their own
// variables are prefixed "u.", and they fetch the construction from the
// host value (Host) on every call.
func InvokeStmts(name, op, resp string) ([]vmachine.Stmt, error) {
	switch name {
	case "central":
		return centralStmts(op, resp), nil
	case "group-update":
		return groupUpdateStmts(op, resp, false), nil
	case "herlihy":
		return herlihyStmts(op, resp), nil
	case "group-update-broken":
		if MutantAvailable {
			return groupUpdateStmts(op, resp, true), nil
		}
	}
	return nil, fmt.Errorf("universal: no compiled twin for construction %q", name)
}

// prologue binds u.cons and u.base: `c := host.Construction()`, and the
// base register the Go code reads from c's fields.
func prologue() []vmachine.Stmt {
	return []vmachine.Stmt{
		set("u.cons", call("universal.cons", vmachine.HostE{})),
		set("u.base", call("universal.base", vVar("u.cons"))),
	}
}

// centralStmts mirrors Central.Invoke.
func centralStmts(op, resp string) []vmachine.Stmt {
	reg := vVar("u.base")
	return append(prologue(), vmachine.LoopS{Body: []vmachine.Stmt{
		set("u.cur", asLogOf(vmachine.LLE{Reg: reg})),
		set("u.seq", call("universal.nextSeq", vVar("u.cur"), vmachine.SelfE{})),
		set("u.next", call("universal.add", vVar("u.cur"), vmachine.SelfE{}, vVar("u.seq"), vVar(op))),
		vmachine.SCS{Ok: "u.ok", Reg: reg, Val: vVar("u.next")},
		vmachine.IfS{Cond: vVar("u.ok"), Then: []vmachine.Stmt{
			set(resp, call("universal.replay", vVar("u.cons"), vVar("u.next"), vmachine.SelfE{}, vVar("u.seq"))),
			vmachine.BreakS{},
		}},
	}})
}

// groupUpdateStmts mirrors GroupUpdate.Invoke, or with mutant set the
// broken variant's Invoke, whose node merge is based on the left child.
func groupUpdateStmts(op, resp string, mutant bool) []vmachine.Stmt {
	node := func(i vmachine.Expr) vmachine.Expr { return add(vVar("u.base"), i) }
	v := vVar("u.v")
	mergeArgs := []vmachine.Expr{vVar("u.cur"), vVar("u.l"), vVar("u.r")}
	if mutant {
		mergeArgs = []vmachine.Expr{vVar("u.l"), vVar("u.r"), vVar("u.cur")}
	}
	return append(prologue(),
		// Announce.
		set("u.leaf", call("universal.leaf", vVar("u.cons"))),
		set("u.mine", asLogOf(vmachine.ReadE{Reg: node(vVar("u.leaf"))})),
		set("u.seq", call("universal.len", vVar("u.mine"))),
		vmachine.DoS{E: vmachine.SwapE{Reg: node(vVar("u.leaf")),
			Val: call("universal.add", vVar("u.mine"), vmachine.SelfE{}, vVar("u.seq"), vVar(op))}},
		// Propagate, trying twice at each node.
		set("u.v", call("universal.half", vVar("u.leaf"))),
		vmachine.LoopS{Body: []vmachine.Stmt{
			ifBreak(vmachine.EqE{A: v, B: vInt(0)}),
			set("u.try", vInt(0)),
			vmachine.LoopS{Body: []vmachine.Stmt{
				ifBreak(vmachine.EqE{A: vVar("u.try"), B: vInt(2)}),
				set("u.cur", asLogOf(vmachine.LLE{Reg: node(v)})),
				set("u.l", asLogOf(vmachine.ReadE{Reg: node(add(v, v))})),
				set("u.r", asLogOf(vmachine.ReadE{Reg: node(add(add(v, v), vInt(1)))})),
				vmachine.SCS{Ok: "u.ok", Reg: node(v), Val: call("universal.merge", mergeArgs...)},
				ifBreak(vVar("u.ok")),
				set("u.try", add(vVar("u.try"), vInt(1))),
			}},
			set("u.v", call("universal.half", v)),
		}},
		// Respond by local replay of the root log.
		set("u.root", asLogOf(vmachine.ReadE{Reg: node(vInt(1))})),
		set(resp, call("universal.replay", vVar("u.cons"), vVar("u.root"), vmachine.SelfE{}, vVar("u.seq"))),
	)
}

// herlihyStmts mirrors Herlihy.Invoke.
func herlihyStmts(op, resp string) []vmachine.Stmt {
	main := vVar("u.base")
	announce := func(q vmachine.Expr) vmachine.Expr { return add(add(vVar("u.base"), vInt(1)), q) }
	return append(prologue(),
		set("u.n", call("universal.n", vVar("u.cons"))),
		// Announce.
		set("u.mine", asLogOf(vmachine.ReadE{Reg: announce(vmachine.SelfE{})})),
		set("u.seq", call("universal.len", vVar("u.mine"))),
		vmachine.DoS{E: vmachine.SwapE{Reg: announce(vmachine.SelfE{}),
			Val: call("universal.add", vVar("u.mine"), vmachine.SelfE{}, vVar("u.seq"), vVar(op))}},
		// Help until our record is applied: at most two attempts.
		set("u.try", vInt(0)),
		vmachine.LoopS{Body: []vmachine.Stmt{
			ifBreak(vmachine.EqE{A: vVar("u.try"), B: vInt(2)}),
			set("u.cur", asLogOf(vmachine.LLE{Reg: main})),
			ifBreak(call("universal.contains", vVar("u.cur"), vmachine.SelfE{}, vVar("u.seq"))),
			set("u.ann", vmachine.ConstE{V: vmachine.Nil()}),
			set("u.q", vInt(0)),
			vmachine.LoopS{Body: []vmachine.Stmt{
				ifBreak(vmachine.EqE{A: vVar("u.q"), B: vVar("u.n")}),
				set("u.ann", call("universal.collect", vVar("u.ann"), vmachine.ReadE{Reg: announce(vVar("u.q"))})),
				set("u.q", add(vVar("u.q"), vInt(1))),
			}},
			vmachine.SCS{Ok: "u.ok", Reg: main, Val: call("universal.mergeAll", vVar("u.cur"), vVar("u.ann"))},
			ifBreak(vVar("u.ok")),
			set("u.try", add(vVar("u.try"), vInt(1))),
		}},
		set("u.log", asLogOf(vmachine.ReadE{Reg: main})),
		set(resp, call("universal.replay", vVar("u.cons"), vVar("u.log"), vmachine.SelfE{}, vVar("u.seq"))),
	)
}
