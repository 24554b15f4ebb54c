package machine

import (
	"fmt"
	"testing"

	"jayanti98/internal/shmem"
	"jayanti98/internal/vmachine"
)

// testChunk compiles a trivial body: LL(0), return its value.
func testChunk(t *testing.T) *vmachine.Chunk {
	t.Helper()
	return vmachine.MustCompile(&vmachine.Program{
		Name: "engine-test",
		Body: []vmachine.Stmt{
			vmachine.AssignS{Name: "v", E: vmachine.LLE{Reg: vmachine.ConstE{V: vmachine.Int(0)}}},
			vmachine.ReturnS{E: vmachine.VarE{Name: "v"}},
		},
	})
}

func testBody(e *Env) shmem.Value { return e.LL(0) }

// TestEngineSelection pins the rule that the algorithm picks its engine:
// a compiled chunk runs on the VM, a plain body on a goroutine, and a
// hosted chunk with no body at all on the VM.
func TestEngineSelection(t *testing.T) {
	cases := []struct {
		alg  Algorithm
		want string
	}{
		{NewCompiled("compiled", testBody, testChunk(t)), "vm"},
		{New("plain", testBody), "goroutine"},
		{NewHosted("vm-only", nil, testChunk(t), nil), "vm"},
	}
	for _, c := range cases {
		m := Start(c.alg, 0, 1)
		got := m.EngineName()
		if got == "vm" {
			// The VM runs the chunk: LL(0), then return its value.
			m.DeliverOpResponse(shmem.Response{OK: true, Val: 5})
			if a := m.Peek(); a.Kind != ActReturn || a.Ret != 5 {
				t.Fatalf("%s: final action %+v, want return 5", c.alg.Name(), a)
			}
		}
		m.Close()
		if got != c.want {
			t.Fatalf("Start(%s) ran on %q, want %q", c.alg.Name(), got, c.want)
		}
	}
}

// TestEnginesSameObservables runs the same compiled algorithm to completion
// on both engines and compares the machine-level observables directly —
// the machine package's own smoke version of the lockstep harness.
func TestEnginesSameObservables(t *testing.T) {
	alg := NewCompiled("obs", func(e *Env) shmem.Value {
		v := e.LL(0)
		ok, _ := e.SC(0, e.ID())
		_ = v
		if ok {
			return e.Swap(1, "w")
		}
		return nil
	}, vmachine.MustCompile(&vmachine.Program{
		Name: "obs",
		Body: []vmachine.Stmt{
			vmachine.AssignS{Name: "v", E: vmachine.LLE{Reg: vmachine.ConstE{V: vmachine.Int(0)}}},
			vmachine.SCS{Ok: "ok", Reg: vmachine.ConstE{V: vmachine.Int(0)}, Val: vmachine.SelfE{}},
			vmachine.IfS{Cond: vmachine.VarE{Name: "ok"}, Then: []vmachine.Stmt{
				vmachine.ReturnS{E: vmachine.SwapE{Reg: vmachine.ConstE{V: vmachine.Int(1)}, Val: vmachine.ConstE{V: vmachine.Str("w")}}},
			}},
			vmachine.ReturnS{E: vmachine.ConstE{V: vmachine.Nil()}},
		},
	}))
	run := func(alg Algorithm) (string, int, shmem.Value, string) {
		m := Start(alg, 0, 1)
		defer m.Close()
		mem := shmem.New()
		for {
			a := m.Peek()
			switch a.Kind {
			case ActOp:
				m.DeliverOpResponse(mem.Apply(0, a.Op))
			case ActReturn:
				return m.HistoryKey(), m.Steps(), m.ReturnValue(), m.EngineName()
			case ActCrash:
				t.Fatalf("crash: %v", m.Crashed())
			}
		}
	}
	gk, gs, gr, ge := run(New(alg.Name(), alg.Run))
	vk, vs, vr, ve := run(alg)
	if ge != "goroutine" || ve != "vm" {
		t.Fatalf("engines = %q/%q", ge, ve)
	}
	if gk != vk {
		t.Fatalf("history keys diverge: %q vs %q", gk, vk)
	}
	if gs != vs {
		t.Fatalf("step counts diverge: %d vs %d", gs, vs)
	}
	if !shmem.ValuesEqual(gr, vr) {
		t.Fatalf("return values diverge: %v vs %v", gr, vr)
	}
}

// TestDigestTypeSensitivity: responses carrying int(1) and int64(1) must
// yield different history digests — the digest's value encoding is as
// type-sensitive as shmem.ValuesEqual.
func TestDigestTypeSensitivity(t *testing.T) {
	run := func(val shmem.Value) string {
		m := Start(New("t", func(e *Env) shmem.Value { return e.LL(0) }), 0, 1)
		defer m.Close()
		if a := m.Peek(); a.Kind != ActOp {
			t.Fatalf("pending %v", a.Kind)
		}
		m.DeliverOpResponse(shmem.Response{OK: true, Val: val})
		m.Peek()
		return m.HistoryKey()
	}
	if run(int(1)) == run(int64(1)) {
		t.Fatal("digest does not distinguish int(1) from int64(1)")
	}
	if run("1") == run(int(1)) {
		t.Fatal(`digest does not distinguish "1" from int(1)`)
	}
}

// TestForkIndependence: a fork of a VM machine and its origin, driven with
// the same inputs, report the same actions, counts and history digests;
// driving the fork differently never changes the origin; the fork reads
// its own host. A goroutine machine cannot fork.
func TestForkIndependence(t *testing.T) {
	chunk := vmachine.MustCompile(&vmachine.Program{
		Name: "fork-test",
		Body: []vmachine.Stmt{
			vmachine.AssignS{Name: "v", E: vmachine.LLE{Reg: vmachine.ConstE{V: vmachine.Int(0)}}},
			vmachine.AssignS{Name: "c", E: vmachine.TossE{}},
			vmachine.SCS{Ok: "ok", Reg: vmachine.ConstE{V: vmachine.Int(0)}, Val: vmachine.VarE{Name: "c"}},
			vmachine.ReturnS{E: vmachine.HostE{}},
		},
	})
	body := func(e *Env) shmem.Value {
		e.LL(0)
		e.SC(0, e.Toss())
		return "origin"
	}
	alg := NewHosted("fork-test", body, chunk, "origin")
	m := Start(alg, 0, 1)
	defer m.Close()
	m.DeliverOpResponse(shmem.Response{OK: true, Val: 3})
	if m.Peek().Kind != ActToss {
		t.Fatalf("pending %v, want toss", m.Peek().Kind)
	}

	// Same inputs: same observables.
	same := m.Fork("fork")
	for _, mc := range []*Machine{m, same} {
		mc.DeliverToss(7)
		mc.DeliverOpResponse(shmem.Response{OK: true, Val: 3})
	}
	if m.HistoryKey() == "disabled" || m.HistoryKey() != same.HistoryKey() || m.Steps() != same.Steps() || m.NumTosses() != same.NumTosses() {
		t.Fatalf("origin (%s, %d steps, %d tosses) and fork (%s, %d, %d) diverged on equal inputs",
			m.HistoryKey(), m.Steps(), m.NumTosses(), same.HistoryKey(), same.Steps(), same.NumTosses())
	}
	if m.Peek().Ret != "origin" || same.Peek().Ret != "fork" {
		t.Fatalf("returned %v and %v, want each machine's own host", m.Peek().Ret, same.Peek().Ret)
	}

	// Different inputs: the origin does not move.
	o := Start(alg, 0, 1)
	defer o.Close()
	o.DeliverOpResponse(shmem.Response{OK: true})
	before := o.HistoryKey()
	f := o.Fork(nil)
	f.DeliverToss(1)
	f.DeliverOpResponse(shmem.Response{OK: true})
	if o.HistoryKey() != before || o.Peek().Kind != ActToss || o.NumTosses() != 0 || o.Steps() != 1 {
		t.Fatalf("stepping the fork moved the origin: %s → %s, pending %v", before, o.HistoryKey(), o.Peek().Kind)
	}

	g := Start(New(alg.Name(), alg.Run), 0, 1)
	defer g.Close()
	if g.Fork(nil) != nil {
		t.Fatal("a goroutine machine forked")
	}
}

// TestReset: a VM machine reset from any state — not yet started, at a
// pending op or toss, returned or crashed — then driven along a script
// reports exactly the actions, counts and history digest of a freshly
// started machine driven along it. A goroutine machine refuses to reset.
func TestReset(t *testing.T) {
	// v := LL(0); c := toss; SC(0, c); return v + 1. A string in register
	// 0 makes the addition panic, which crashes the machine.
	chunk := vmachine.MustCompile(&vmachine.Program{
		Name: "reset-test",
		Body: []vmachine.Stmt{
			vmachine.AssignS{Name: "v", E: vmachine.LLE{Reg: vmachine.ConstE{V: vmachine.Int(0)}}},
			vmachine.AssignS{Name: "c", E: vmachine.TossE{}},
			vmachine.SCS{Ok: "ok", Reg: vmachine.ConstE{V: vmachine.Int(0)}, Val: vmachine.VarE{Name: "c"}},
			vmachine.ReturnS{E: vmachine.AddE{A: vmachine.VarE{Name: "v"}, B: vmachine.ConstE{V: vmachine.Int(1)}}},
		},
	})
	alg := NewHosted("reset-test", nil, chunk, nil)
	// run drives m to its end, reading ll from register 0, and renders
	// every action and the final counts and digest.
	run := func(m *Machine, ll shmem.Value) string {
		var out []string
		for {
			a := m.Peek()
			out = append(out, fmt.Sprintf("%v %v %v", a.Kind, a.Op, a.Ret))
			switch a.Kind {
			case ActOp:
				m.DeliverOpResponse(shmem.Response{OK: true, Val: ll})
			case ActToss:
				m.DeliverToss(7)
			default:
				return fmt.Sprintf("%v steps=%d tosses=%d terminated=%t crashed=%v ret=%v %s",
					out, m.Steps(), m.NumTosses(), m.Terminated(), m.Crashed(), m.ReturnValue(), m.HistoryKey())
			}
		}
	}
	states := []struct {
		name string
		to   func(m *Machine)
	}{
		{"not started", func(*Machine) {}},
		{"pending op", func(m *Machine) { m.Peek() }},
		{"pending toss", func(m *Machine) { m.DeliverOpResponse(shmem.Response{OK: true, Val: 3}) }},
		{"returned", func(m *Machine) { run(m, 3) }},
		{"crashed", func(m *Machine) { run(m, "x") }},
	}
	for _, st := range states {
		for _, ll := range []shmem.Value{3, "x"} {
			fresh := Start(alg, 0, 1)
			want := run(fresh, ll)
			m := Start(alg, 0, 1)
			st.to(m)
			if !m.Reset() {
				t.Fatalf("%s: a VM machine refused to reset", st.name)
			}
			if got := run(m, ll); got != want {
				t.Errorf("reset from %s, then register %v:\n got %s\nwant %s", st.name, ll, got, want)
			}
		}
	}

	g := Start(New("reset-test", func(e *Env) shmem.Value { return e.LL(0) }), 0, 1)
	defer g.Close()
	g.DeliverOpResponse(shmem.Response{OK: true, Val: 3})
	g.Peek() // the return
	before := g.HistoryKey()
	if g.Reset() {
		t.Fatal("a goroutine machine reset")
	}
	if g.Steps() != 1 || !g.Terminated() || g.HistoryKey() != before {
		t.Fatalf("a refused reset changed the machine: steps=%d terminated=%t %s → %s", g.Steps(), g.Terminated(), before, g.HistoryKey())
	}
}
