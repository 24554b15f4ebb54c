package lockstep

import (
	"fmt"
	"testing"

	"jayanti98/internal/machine"
	"jayanti98/internal/objtype"
	"jayanti98/internal/shmem"
	"jayanti98/internal/universal"
	"jayanti98/internal/vmachine"
)

// objects are the construction workloads of package explore, restated:
// every process fetch&increments, or even pids enqueue unique values while
// odd pids dequeue.
var objects = map[string]struct {
	typ func() objtype.Type
	op  func(pid, i int) objtype.Op
}{
	"fetch-increment": {
		typ: func() objtype.Type { return objtype.NewFetchIncrement(16) },
		op:  func(int, int) objtype.Op { return objtype.Op{Name: objtype.OpFetchIncrement} },
	},
	"queue": {
		typ: func() objtype.Type { return objtype.NewEmptyQueue() },
		op: func(pid, i int) objtype.Op {
			if pid%2 == 0 {
				return objtype.Op{Name: objtype.OpEnqueue, Arg: fmt.Sprintf("p%d#%d", pid, i)}
			}
			return objtype.Op{Name: objtype.OpDequeue}
		},
	},
}

// workloadHost is the host value of a workload algorithm's VM machines.
type workloadHost struct {
	cons universal.Construction
	k    int
	ops  func(pid, i int) objtype.Op
}

func (h *workloadHost) Construction() universal.Construction { return h.cons }

// workloadChunks maps a construction name to the compiled form of
// workload's body: for i < k { resp = <twin of Invoke>(ops(self, i)) };
// return resp.
var workloadChunks = func() map[string]*vmachine.Chunk {
	vmachine.RegisterNative("lockstep.done", func(_, _ int, args []vmachine.Value) vmachine.Value {
		return vmachine.Bool(args[1].AsInt() >= args[0].Any.(*workloadHost).k)
	})
	vmachine.RegisterNative("lockstep.op", func(id, _ int, args []vmachine.Value) vmachine.Value {
		return vmachine.Value{Kind: vmachine.KAny, Any: args[0].Any.(*workloadHost).ops(id, args[1].AsInt())}
	})
	host, i := vmachine.HostE{}, vmachine.VarE{Name: "i"}
	chunks := make(map[string]*vmachine.Chunk)
	for _, name := range append(universal.Names(), "group-update-broken") {
		invoke, err := universal.InvokeStmts(name, "op", "resp")
		if err != nil {
			continue // the mutant without -tags mutation
		}
		loop := append([]vmachine.Stmt{
			vmachine.IfS{Cond: vmachine.CallE{Fn: "lockstep.done", Args: []vmachine.Expr{host, i}}, Then: []vmachine.Stmt{vmachine.BreakS{}}},
			vmachine.AssignS{Name: "op", E: vmachine.CallE{Fn: "lockstep.op", Args: []vmachine.Expr{host, i}}},
		}, invoke...)
		loop = append(loop, vmachine.AssignS{Name: "i", E: vmachine.AddE{A: i, B: vmachine.ConstE{V: vmachine.Int(1)}}})
		chunks[name] = vmachine.MustCompile(&vmachine.Program{Name: "lockstep/" + name, Body: []vmachine.Stmt{
			vmachine.AssignS{Name: "resp", E: vmachine.ConstE{V: vmachine.Nil()}},
			vmachine.AssignS{Name: "i", E: vmachine.ConstE{V: vmachine.Int(0)}},
			vmachine.LoopS{Body: loop},
			vmachine.ReturnS{E: vmachine.VarE{Name: "resp"}},
		}})
	}
	return chunks
}()

// workload returns the named construction (universal.Names(), or the
// broken Group-Update under -tags mutation) running k operations of the
// named object per process at n processes, and returning the last
// response: a compiled pair whose goroutine body calls Invoke and whose
// chunk runs Invoke's compiled twin.
func workload(tb testing.TB, cons, object string, n, k int) machine.Algorithm {
	tb.Helper()
	obj := objects[object]
	var c universal.Construction
	var err error
	if cons == "group-update-broken" {
		c, err = universal.NewBrokenGroupUpdate(obj.typ(), n, 0)
	} else {
		c, err = universal.New(cons, obj.typ(), n, 0)
	}
	if err != nil {
		tb.Fatal(err)
	}
	body := func(e *machine.Env) shmem.Value {
		var resp objtype.Value
		for i := 0; i < k; i++ {
			resp = c.Invoke(e, obj.op(e.ID(), i))
		}
		return resp
	}
	return machine.NewHosted("universal/"+cons, body, workloadChunks[cons], &workloadHost{cons: c, k: k, ops: obj.op})
}

// fuzzWorkloads lists the construction workloads FuzzVMEquivalence picks
// from after the wakeup algorithms, in a fixed order.
func fuzzWorkloads(tb testing.TB, n int) []machine.Algorithm {
	var out []machine.Algorithm
	for _, cons := range universal.Names() {
		for _, object := range []string{"fetch-increment", "queue"} {
			out = append(out, workload(tb, cons, object, n, 2))
		}
	}
	return out
}

// TestExhaustiveConstructionEquivalence explores every schedule of every
// construction's compiled Invoke twin in lockstep with Invoke itself, for
// both explore workloads at n ∈ {2, 3} with one operation per process, and
// at n = 2 with two (so announce logs hold earlier records). Constructions
// never toss, so one toss assignment covers them. Group-Update at n = 3
// (~160k states, ~90 s) is left out; the cases over a second are skipped
// in -short mode and under -race.
func TestExhaustiveConstructionEquivalence(t *testing.T) {
	type tc struct {
		cons    string
		n, k    int
		long    bool
		objects []string
	}
	both := []string{"fetch-increment", "queue"}
	cases := []tc{
		{cons: "central", n: 2, k: 1, objects: both},
		{cons: "central", n: 2, k: 2, objects: both},
		{cons: "central", n: 3, k: 1, objects: both},
		{cons: "group-update", n: 2, k: 1, objects: both},
		{cons: "group-update", n: 2, k: 2, objects: both, long: true},
		{cons: "herlihy", n: 2, k: 1, objects: both},
		{cons: "herlihy", n: 2, k: 2, objects: both, long: true},
		{cons: "herlihy", n: 3, k: 1, objects: both, long: true},
	}
	for _, c := range cases {
		for _, object := range c.objects {
			c, object := c, object
			t.Run(fmt.Sprintf("%s/%s/n=%d/k=%d", c.cons, object, c.n, c.k), func(t *testing.T) {
				if c.long && (testing.Short() || raceEnabled) {
					t.Skip("long exhaustive case skipped in -short mode and under -race")
				}
				t.Parallel()
				stats, err := Exhaustive(workload(t, c.cons, object, c.n, c.k), c.n, machine.ZeroTosses, 128)
				if err != nil {
					t.Fatal(err)
				}
				if stats.States == 0 || stats.Runs == 0 {
					t.Fatalf("degenerate exploration: %+v", stats)
				}
				t.Logf("states=%d runs=%d maxDepth=%d", stats.States, stats.Runs, stats.MaxDepth)
			})
		}
	}
}
