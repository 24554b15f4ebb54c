package linz

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"jayanti98/internal/objtype"
)

// memoWorkload is one object type with the ops processes invoke and the
// responses their returns report. The lists mix plausible values, values
// of the wrong dynamic type, and values with no transition-key encoding
// (slices), so cached, uncached and inconsistent transitions all occur.
type memoWorkload struct {
	typ   func() objtype.Type
	ops   []objtype.Op
	resps []objtype.Value
}

var memoWorkloads = []memoWorkload{
	{
		typ:   func() objtype.Type { return objtype.NewFetchIncrement(8) },
		ops:   []objtype.Op{fi()},
		resps: []objtype.Value{"0", "1", "2", "3", "4", 1, []int{1}},
	},
	{
		typ: objtype.NewEmptyQueue,
		ops: []objtype.Op{
			{Name: objtype.OpEnqueue, Arg: "a"},
			{Name: objtype.OpEnqueue, Arg: "b"},
			{Name: objtype.OpEnqueue, Arg: 3},
			{Name: objtype.OpEnqueue, Arg: []int{5}},
			{Name: objtype.OpDequeue},
			{Name: objtype.OpDequeue},
		},
		resps: []objtype.Value{nil, "a", "b", 3, objtype.Empty, []int{5}},
	},
	{
		typ:   objtype.NewTAS,
		ops:   []objtype.Op{tasOp(), tasOp(), {Name: objtype.OpRead}},
		resps: []objtype.Value{0, 1, int64(1), nil},
	},
}

// FuzzOnlineMemo holds a checker on a shared, warmed memo to a checker on
// a private one. The input picks a workload, n ≤ 4 and a config cap, then
// a stream of events; a zero byte ends one event sequence and starts the
// next on fresh checkers, so later sequences run on a memo warmed by the
// earlier ones. After every event both checkers must agree on the
// returned error, Ok, Violation, Key and Events. The cap is small (1–16,
// so the cap error is common) or 256: long overlapping queue histories
// grow the set towards the production cap of 65536, and computing such
// sets would stall the fuzzer without testing anything more.
func FuzzOnlineMemo(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 2, 3, 4, 0, 1, 2, 4, 3})
	f.Add([]byte{1, 2, 0, 4, 9, 13, 6, 5, 0, 9, 4, 6, 13, 5})
	f.Add([]byte{2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 3, 2, 1, 4, 7, 6, 5})
	f.Add([]byte{0, 3, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{1, 3, 3, 1, 2, 3, 4, 6, 7, 0, 4, 3, 2, 1})
	f.Add([]byte{0, 0, 0, 29, 30, 31, 32})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		w := memoWorkloads[int(data[0])%len(memoWorkloads)]
		n := 1 + int(data[1])%4
		limit := 256
		if data[2]%2 == 1 {
			limit = 1 + int(data[2])%16
		}
		typ := w.typ()
		shared := newMemo(typ, n, limit)
		warm, private := shared.NewOnline(), newMemo(typ, n, limit).NewOnline()
		pending := make([]bool, n)
		for i, b := range data[3:] {
			if b == 0 {
				warm, private = shared.NewOnline(), newMemo(typ, n, limit).NewOnline()
				pending = make([]bool, n)
				continue
			}
			proc, sel := int(b)%n, int(b)/n
			// Every eighth choice is protocol misuse: a second invoke, or
			// a return with nothing outstanding.
			invoke := pending[proc] == (sel%8 == 7)
			var errWarm, errPrivate error
			if invoke {
				op := w.ops[sel%len(w.ops)]
				errWarm, errPrivate = warm.Invoke(proc, op), private.Invoke(proc, op)
			} else {
				resp := w.resps[sel%len(w.resps)]
				errWarm, errPrivate = warm.Return(proc, resp), private.Return(proc, resp)
			}
			if (errWarm == nil) != (errPrivate == nil) || (errWarm != nil && errWarm.Error() != errPrivate.Error()) {
				t.Fatalf("event %d: errors differ: warm %v, private %v", i, errWarm, errPrivate)
			}
			if errWarm == nil && sel%8 != 7 {
				pending[proc] = invoke
			}
			if warm.Ok() != private.Ok() || warm.Violation() != private.Violation() ||
				warm.Key() != private.Key() || warm.events != private.events {
				t.Fatalf("event %d: warm (ok %t, %q, %d events, key %q) != private (ok %t, %q, %d events, key %q)", i,
					warm.Ok(), warm.Violation(), warm.events, warm.Key(),
					private.Ok(), private.Violation(), private.events, private.Key())
			}
		}
	})
}

// TestOnlineMemoCapErrorLeavesCheckerUnchanged: exceeding the config cap
// is an error every checker reports for itself, never a cached outcome,
// and the rejected event changes nothing.
func TestOnlineMemoCapErrorLeavesCheckerUnchanged(t *testing.T) {
	m := newMemo(objtype.NewFetchIncrement(8), 3, 4)
	for round := 0; round < 2; round++ {
		o := m.NewOnline()
		if err := o.Invoke(0, fi()); err != nil {
			t.Fatal(err)
		}
		key, events := o.Key(), o.events
		if err := o.Invoke(1, fi()); err == nil {
			t.Fatalf("round %d: two pending increments fit a cap of 4 configs", round)
		}
		if o.Key() != key || o.events != events || !o.Ok() {
			t.Fatalf("round %d: a rejected event changed the checker", round)
		}
		// The outstanding op is still p0's alone.
		if err := o.Return(0, "0"); err != nil || !o.Ok() {
			t.Fatalf("round %d: return after the cap error: %v, ok %t", round, err, o.Ok())
		}
	}
}

// TestOnlineMemoSharesTransitions: a second checker replaying the first
// one's events on the same memo reaches the very same interned sets.
func TestOnlineMemoSharesTransitions(t *testing.T) {
	m := NewMemo(objtype.NewFetchIncrement(8), 2)
	a, b := m.NewOnline(), m.NewOnline()
	for _, o := range []*Online{a, b} {
		if err := o.Invoke(0, fi()); err != nil {
			t.Fatal(err)
		}
		if err := o.Invoke(1, fi()); err != nil {
			t.Fatal(err)
		}
		if err := o.Return(1, "0"); err != nil {
			t.Fatal(err)
		}
	}
	if a.set != b.set {
		t.Fatal("equal event sequences on one memo reached different sets")
	}
	if got := len(m.next); got != 3 {
		t.Fatalf("memo cached %d transitions, want 3", got)
	}
}

// fmtRenderConfig is the fmt rendering appendConfig replaced, of a config
// whose lin is given as a map; Key bytes depend on the two agreeing.
func fmtRenderConfig(state objtype.Value, lin map[int]objtype.Value) string {
	procs := make([]int, 0, len(lin))
	for p := range lin {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	var b strings.Builder
	fmt.Fprintf(&b, "%v", state)
	for _, p := range procs {
		fmt.Fprintf(&b, "|p%d=%v", p, lin[p])
	}
	return b.String()
}

// TestAppendConfigMatchesFmt: configs over the state and response types
// of every workload, and over values fmt must render itself, render to
// exactly fmt's bytes: as given, with a proc added by withLin's sorted
// insert, and with one removed by withoutLin.
func TestAppendConfigMatchesFmt(t *testing.T) {
	values := []objtype.Value{nil, 0, 1, -7, "", "2a", objtype.Empty, int64(3), true,
		[]objtype.Value{"a", 3, nil}, []objtype.Value(nil), []int{5}}
	rng := rand.New(rand.NewSource(1))
	var scratch []linEntry
	check := func(state objtype.Value, lin []linEntry, want map[int]objtype.Value) {
		t.Helper()
		if got, want := string(appendConfig(nil, state, lin)), fmtRenderConfig(state, want); got != want {
			t.Fatalf("appendConfig = %q, fmt = %q", got, want)
		}
	}
	for i := 0; i < 2000; i++ {
		lin := map[int]objtype.Value{}
		for k := rng.Intn(4); k > 0; k-- {
			lin[rng.Intn(12)-2] = values[rng.Intn(len(values))]
		}
		var sorted []linEntry
		for p, v := range lin {
			sorted = append(sorted, linEntry{proc: p, resp: v})
		}
		slices.SortFunc(sorted, func(a, b linEntry) int { return a.proc - b.proc })
		state := values[rng.Intn(len(values))]
		check(state, sorted, lin)
		extra := rng.Intn(16) - 3
		at, found := findLin(sorted, extra)
		if _, ok := lin[extra]; ok != found {
			t.Fatalf("findLin(%v, %d) found = %t", sorted, extra, found)
		}
		if !found {
			v := values[rng.Intn(len(values))]
			scratch = withLin(scratch, sorted, at, linEntry{proc: extra, resp: v})
			with := maps.Clone(lin)
			with[extra] = v
			check(state, scratch, with)
		}
		if len(sorted) > 0 {
			at := rng.Intn(len(sorted))
			scratch = withoutLin(scratch, sorted, at)
			without := maps.Clone(lin)
			delete(without, sorted[at].proc)
			check(state, scratch, without)
		}
	}
}

// latentType is a counter whose "read" and "bump-odd" agree on even
// states (both return the state and leave it) but not on odd ones, where
// "bump-odd" increments. Two histories that differ only in which of the
// two a process has outstanding therefore reach the same config set at
// an even state.
type latentType struct{}

func (latentType) Name() string           { return "latent" }
func (latentType) Init(int) objtype.Value { return 0 }
func (latentType) Ops() []string          { return []string{"inc", "read", "bump-odd"} }
func (latentType) Apply(state objtype.Value, op objtype.Op) (objtype.Value, objtype.Value) {
	s := state.(int)
	if op.Name == "inc" || (op.Name == "bump-odd" && s%2 == 1) {
		return s + 1, s
	}
	return s, s
}

// TestOnlineMemoKeysOutstandingOps: the outstanding ops are part of a
// transition's key, even where the config set alone cannot tell them
// apart. After p0 invokes "read" or "bump-odd" at state 0 the two sets
// are the same; p1's "inc" then exposes the difference.
func TestOnlineMemoKeysOutstandingOps(t *testing.T) {
	m := NewMemo(latentType{}, 2)
	for _, name := range []string{"read", "bump-odd"} {
		shared, private := m.NewOnline(), NewMemo(latentType{}, 2).NewOnline()
		for _, o := range []*Online{shared, private} {
			if err := o.Invoke(0, objtype.Op{Name: name}); err != nil {
				t.Fatal(err)
			}
			if err := o.Invoke(1, objtype.Op{Name: "inc"}); err != nil {
				t.Fatal(err)
			}
		}
		if shared.Key() != private.Key() {
			t.Fatalf("p0 %s: memo checker key %q, private %q", name, shared.Key(), private.Key())
		}
	}
}
