package machine

import (
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

func TestParseEngine(t *testing.T) {
	valid := map[string]Engine{
		"":          EngineAuto,
		"auto":      EngineAuto,
		"goroutine": EngineGoroutine,
		"go":        EngineGoroutine,
		"interp":    EngineGoroutine,
		"vm":        EngineVM,
		"bytecode":  EngineVM,
	}
	for s, want := range valid {
		got, err := ParseEngine(s)
		if err != nil || got != want {
			t.Fatalf("ParseEngine(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseEngine("quantum"); err == nil {
		t.Fatal("ParseEngine accepted an unknown engine")
	}
}

// TestEngineSelection pins the engine resolution matrix: which engine a
// machine actually runs on, for compiled and uncompiled algorithms, under
// each Engine value.
func TestEngineSelection(t *testing.T) {
	compiled := NewCompiled("compiled", testBody, testChunk(t))
	plain := New("plain", testBody)
	cases := []struct {
		alg  Algorithm
		eng  Engine
		want string
	}{
		{compiled, EngineAuto, "vm"},
		{compiled, EngineVM, "vm"},
		{compiled, EngineGoroutine, "goroutine"},
		{plain, EngineAuto, "goroutine"},
		{plain, EngineVM, "goroutine"}, // no chunk: graceful fallback
		{plain, EngineGoroutine, "goroutine"},
	}
	for _, c := range cases {
		m := StartEngine(c.alg, 0, 1, c.eng)
		got := m.EngineName()
		m.Close()
		if got != c.want {
			t.Fatalf("StartEngine(%s, %v) ran on %q, want %q", c.alg.Name(), c.eng, got, c.want)
		}
	}
}

func TestSetDefaultEngineRoundTrip(t *testing.T) {
	prev := SetDefaultEngine(EngineGoroutine)
	defer SetDefaultEngine(prev)
	compiled := NewCompiled("compiled", testBody, testChunk(t))
	m := Start(compiled, 0, 1)
	defer m.Close()
	if got := m.EngineName(); got != "goroutine" {
		t.Fatalf("default engine override ignored: machine on %q", got)
	}
	if cur := SetDefaultEngine(EngineVM); cur != EngineGoroutine {
		t.Fatalf("SetDefaultEngine returned %v, want %v", cur, EngineGoroutine)
	}
	m2 := Start(compiled, 0, 1)
	defer m2.Close()
	if got := m2.EngineName(); got != "vm" {
		t.Fatalf("default engine vm ignored: machine on %q", got)
	}
	SetDefaultEngine(EngineGoroutine) // prev restored by the deferred call
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
	run := func(eng Engine) (string, int, shmem.Value, string) {
		m := StartEngine(alg, 0, 1, eng)
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
	gk, gs, gr, ge := run(EngineGoroutine)
	vk, vs, vr, ve := run(EngineVM)
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
	m := StartEngine(alg, 0, 1, EngineVM)
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
	o := StartEngine(alg, 0, 1, EngineVM)
	defer o.Close()
	o.DeliverOpResponse(shmem.Response{OK: true})
	before := o.HistoryKey()
	f := o.Fork(nil)
	f.DeliverToss(1)
	f.DeliverOpResponse(shmem.Response{OK: true})
	if o.HistoryKey() != before || o.Peek().Kind != ActToss || o.NumTosses() != 0 || o.Steps() != 1 {
		t.Fatalf("stepping the fork moved the origin: %s → %s, pending %v", before, o.HistoryKey(), o.Peek().Kind)
	}

	g := StartEngine(alg, 0, 1, EngineGoroutine)
	defer g.Close()
	if g.Fork(nil) != nil {
		t.Fatal("a goroutine machine forked")
	}
}
