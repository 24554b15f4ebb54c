package explore

import (
	"jayanti98/internal/objtype"
	"jayanti98/internal/universal"
	"jayanti98/internal/vmachine"
)

// This file compiles the construction workload body of newRunner: the
// leading start-barrier toss, then per operation the invoke event, the
// construction's compiled Invoke twin (universal.InvokeStmts), and the
// return event. Each construction's chunk compiles once at package init;
// a runner binds its machines to itself through the host value, so the
// natives below append to that runner's event log.

// Construction reports the construction a runner's compiled body invokes
// (universal.Host).
func (r *runner) Construction() universal.Construction { return r.cons }

// registerBodyNatives installs the body's natives. Each takes the runner
// (vmachine.HostE) as its first argument.
func registerBodyNatives() {
	// explore.done(host, i): i >= OpsPerProc.
	vmachine.RegisterNative("explore.done", func(_, _ int, args []vmachine.Value) vmachine.Value {
		return vmachine.Bool(args[1].AsInt() >= args[0].Any.(*runner).cfg.OpsPerProc)
	})
	// explore.invoke(host, i): op := w.op(self, i), recording its invoke.
	vmachine.RegisterNative("explore.invoke", func(id, _ int, args []vmachine.Value) vmachine.Value {
		r := args[0].Any.(*runner)
		op := r.wl.op(id, args[1].AsInt())
		r.log.events = append(r.log.events, event{proc: id, kind: evInvoke, op: op})
		return vmachine.Value{Kind: vmachine.KAny, Any: op}
	})
	// explore.return(host, op, resp): record op's return with resp.
	vmachine.RegisterNative("explore.return", func(id, _ int, args []vmachine.Value) vmachine.Value {
		r := args[0].Any.(*runner)
		r.log.events = append(r.log.events, event{proc: id, kind: evReturn, op: args[1].Any.(objtype.Op), resp: args[2].Box()})
		return vmachine.Nil()
	})
}

// bodyProgram is newRunner's body with invoke as the construction's
// compiled Invoke (reading variable op, writing variable resp).
func bodyProgram(name string, invoke []vmachine.Stmt) *vmachine.Program {
	host := vmachine.HostE{}
	i := vmachine.VarE{Name: "i"}
	loop := []vmachine.Stmt{
		vmachine.IfS{Cond: vmachine.CallE{Fn: "explore.done", Args: []vmachine.Expr{host, i}},
			Then: []vmachine.Stmt{vmachine.BreakS{}}},
		vmachine.AssignS{Name: "op", E: vmachine.CallE{Fn: "explore.invoke", Args: []vmachine.Expr{host, i}}},
	}
	loop = append(loop, invoke...)
	loop = append(loop,
		vmachine.DoS{E: vmachine.CallE{Fn: "explore.return", Args: []vmachine.Expr{host, vmachine.VarE{Name: "op"}, vmachine.VarE{Name: "resp"}}}},
		vmachine.AssignS{Name: "i", E: vmachine.AddE{A: i, B: vmachine.ConstE{V: vmachine.Int(1)}}},
	)
	return &vmachine.Program{Name: "explore/" + name, Body: []vmachine.Stmt{
		vmachine.DoS{E: vmachine.TossE{}}, // the start barrier
		vmachine.AssignS{Name: "i", E: vmachine.ConstE{V: vmachine.Int(0)}},
		vmachine.LoopS{Body: loop},
		vmachine.ReturnS{E: vmachine.ConstE{V: vmachine.Nil()}},
	}}
}

// compileBodies registers the natives and compiles one body per
// construction with a twin (the broken Group-Update only under -tags
// mutation).
func compileBodies() map[string]*vmachine.Chunk {
	registerBodyNatives()
	chunks := make(map[string]*vmachine.Chunk)
	for _, name := range append(universal.Names(), BrokenGroupUpdate) {
		invoke, err := universal.InvokeStmts(name, "op", "resp")
		if err != nil {
			continue
		}
		chunks[name] = vmachine.MustCompile(bodyProgram(name, invoke))
	}
	return chunks
}

// bodyChunks maps a construction name to its compiled body.
var bodyChunks = compileBodies()
