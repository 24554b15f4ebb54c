package linz

import (
	"math/rand"
	"testing"

	"jayanti98/internal/objtype"
)

func fi() objtype.Op { return objtype.Op{Name: objtype.OpFetchIncrement} }

// TestPendingOperationOptional: a single pending op — invoked, never
// responded — is linearizable on its own: it may simply not have taken
// effect. Before pending support, such an operation was not even
// representable (a zero Return made the interval empty and Validate
// rejected the history).
func TestPendingOperationOptional(t *testing.T) {
	typ := objtype.NewFetchIncrement(8)
	h := NewHistory(2)
	h.AddPending(0, fi(), 1)
	res, err := Check(typ, h)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Linearizable {
		t.Fatal("a lone pending op must be linearizable (it may be dropped)")
	}
}

// TestPendingOperationMustTakeEffect: a completed operation can force a
// pending one into the linearization — here a dequeue observes the value
// of an enqueue that never returned.
func TestPendingOperationMustTakeEffect(t *testing.T) {
	typ := objtype.NewEmptyQueue()
	h := NewHistory(2)
	pendID := h.AddPending(0, objtype.Op{Name: objtype.OpEnqueue, Arg: "x"}, 1)
	h.Add(1, objtype.Op{Name: objtype.OpDequeue}, "x", 2, 3)
	res, err := Check(typ, h)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Linearizable {
		t.Fatal("dequeue observing the pending enqueue must linearize")
	}
	found := false
	for _, id := range res.Order {
		if id == pendID {
			found = true
		}
	}
	if !found {
		t.Fatalf("witness %v must include the pending enqueue %d", res.Order, pendID)
	}
}

// TestPendingCannotExplainTooMuch: one pending increment can account for
// at most one ticket; a completed response of "2" remains impossible.
func TestPendingCannotExplainTooMuch(t *testing.T) {
	typ := objtype.NewFetchIncrement(8)
	h := NewHistory(2)
	h.AddPending(0, fi(), 1)
	h.Add(1, fi(), "2", 2, 3)
	res, err := Check(typ, h)
	if err != nil {
		t.Fatal(err)
	}
	if res.Linearizable {
		t.Fatal("ticket 2 with only one possible prior increment must be rejected")
	}
}

// TestPendingMustBeProcessLast: a process cannot invoke again after a
// pending (never-responded) operation; Validate reports the overlap
// rather than panicking or silently accepting.
func TestPendingMustBeProcessLast(t *testing.T) {
	h := NewHistory(1)
	h.AddPending(0, fi(), 1)
	h.Add(0, fi(), "0", 5, 6)
	if err := h.Validate(); err == nil {
		t.Fatal("op after a pending op of the same process must be rejected")
	}
}

// TestValueInconsistentRealTimeOrdered: a fully real-time-ordered (no
// overlap anywhere) history whose responses are impossible is cleanly
// rejected — no panic, no silent acceptance.
func TestValueInconsistentRealTimeOrdered(t *testing.T) {
	typ := objtype.NewReadIncrement(8)
	h := NewHistory(2)
	h.Add(0, objtype.Op{Name: objtype.OpIncrement}, nil, 1, 2)
	h.Add(1, objtype.Op{Name: objtype.OpRead}, "5", 3, 4) // counter is 1
	res, err := Check(typ, h)
	if err != nil {
		t.Fatal(err)
	}
	if res.Linearizable {
		t.Fatal("read of 5 after a single increment must be rejected")
	}
}

// --- Online checker ---

func TestOnlineAcceptsEitherOrderOfOverlappingOps(t *testing.T) {
	typ := objtype.NewFetchIncrement(8)
	o := NewMemo(typ, 2).NewOnline()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(o.Invoke(0, fi()))
	must(o.Invoke(1, fi()))
	must(o.Return(1, "0"))
	must(o.Return(0, "1"))
	if !o.Ok() {
		t.Fatalf("overlapping increments must be accepted: %s", o.Violation())
	}
}

func TestOnlineFlagsViolationAtReturn(t *testing.T) {
	typ := objtype.NewFetchIncrement(8)
	o := NewMemo(typ, 2).NewOnline()
	if err := o.Invoke(0, fi()); err != nil {
		t.Fatal(err)
	}
	if err := o.Return(0, "0"); err != nil {
		t.Fatal(err)
	}
	if err := o.Invoke(1, fi()); err != nil {
		t.Fatal(err)
	}
	// p1 invoked strictly after p0 returned, so "0" is a stale ticket.
	if err := o.Return(1, "0"); err != nil {
		t.Fatal(err)
	}
	if o.Ok() {
		t.Fatal("duplicate ticket after real-time ordering must be rejected")
	}
	if o.Violation() == "" || o.events != 4 {
		t.Fatalf("violation %q events %d", o.Violation(), o.events)
	}
}

func TestOnlineProtocolErrors(t *testing.T) {
	o := NewMemo(objtype.NewFetchIncrement(8), 2).NewOnline()
	if err := o.Invoke(0, fi()); err != nil {
		t.Fatal(err)
	}
	if err := o.Invoke(0, fi()); err == nil {
		t.Fatal("double invoke must error")
	}
	if err := o.Return(1, "0"); err == nil {
		t.Fatal("return without invoke must error")
	}
}

func TestOnlineKeyDistinguishesRealTimeResidue(t *testing.T) {
	typ := objtype.NewFetchIncrement(8)
	// Run A: p0's op completed before p1 invoked (ticket 0 consumed).
	a := NewMemo(typ, 2).NewOnline()
	_ = a.Invoke(0, fi())
	_ = a.Return(0, "0")
	_ = a.Invoke(1, fi())
	// Run B: p1's op overlaps a still-pending p0 op... different futures.
	b := NewMemo(typ, 2).NewOnline()
	_ = b.Invoke(0, fi())
	_ = b.Invoke(1, fi())
	if a.Key() == b.Key() {
		t.Fatal("config keys must distinguish committed from uncommitted tickets")
	}
	// Two identical event sequences must agree exactly.
	c := NewMemo(typ, 2).NewOnline()
	_ = c.Invoke(0, fi())
	_ = c.Return(0, "0")
	_ = c.Invoke(1, fi())
	if a.Key() != c.Key() {
		t.Fatalf("identical histories disagree:\n%s\n%s", a.Key(), c.Key())
	}
}

// TestOnlineMatchesCheckOnRandomHistories cross-validates the two
// checkers: for random completed histories (valid and invalid), the
// online verdict after the last event must equal Check's post-hoc
// verdict on the same history with event-index timestamps.
func TestOnlineMatchesCheckOnRandomHistories(t *testing.T) {
	typ := objtype.NewFetchIncrement(8)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(2)
		opsPer := 1 + rng.Intn(2)
		type ev struct {
			proc   int
			invoke bool
			resp   objtype.Value
		}
		// Build a random valid event order: per process, invoke/return
		// alternate; globally interleaved at random; responses random
		// tickets (often inconsistent — that is the point).
		var events []ev
		left := make([]int, n)
		pending := make([]bool, n)
		for i := range left {
			left[i] = opsPer
		}
		for {
			cands := []int{}
			for p := 0; p < n; p++ {
				if pending[p] || left[p] > 0 {
					cands = append(cands, p)
				}
			}
			if len(cands) == 0 {
				break
			}
			p := cands[rng.Intn(len(cands))]
			if pending[p] {
				events = append(events, ev{proc: p, resp: objtype.HexUint(uint64(rng.Intn(n*opsPer + 1)))})
				pending[p] = false
			} else {
				events = append(events, ev{proc: p, invoke: true})
				pending[p] = true
				left[p]--
			}
		}
		o := NewMemo(typ, n).NewOnline()
		h := NewHistory(n)
		invokeAt := make([]int64, n)
		for i, e := range events {
			ts := int64(i + 1)
			if e.invoke {
				if err := o.Invoke(e.proc, fi()); err != nil {
					t.Fatal(err)
				}
				invokeAt[e.proc] = ts
			} else {
				if err := o.Return(e.proc, e.resp); err != nil {
					t.Fatal(err)
				}
				h.Add(e.proc, fi(), e.resp, invokeAt[e.proc], ts)
			}
		}
		res, err := Check(typ, h)
		if err != nil {
			t.Fatal(err)
		}
		if res.Linearizable != o.Ok() {
			t.Fatalf("trial %d: Check says %v, Online says %v (events %+v)", trial, res.Linearizable, o.Ok(), events)
		}
	}
}

// TestOnlineClone: a clone and its origin fed the same events agree on Ok,
// Key and Events at every step, and events fed to the clone alone never
// change the origin — including its outstanding operations.
func TestOnlineClone(t *testing.T) {
	typ := objtype.NewFetchIncrement(8)
	o := NewMemo(typ, 3).NewOnline()
	for _, p := range []int{0, 1} {
		if err := o.Invoke(p, fi()); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Return(1, "0"); err != nil {
		t.Fatal(err)
	}
	c := o.Clone()
	key, events := o.Key(), o.events

	// The clone alone: p0 returns a ticket that makes it inconsistent.
	if err := c.Invoke(2, fi()); err != nil {
		t.Fatal(err)
	}
	if err := c.Return(0, "5"); err != nil {
		t.Fatal(err)
	}
	if c.Ok() {
		t.Fatal("clone accepted an impossible ticket")
	}
	if !o.Ok() || o.Key() != key || o.events != events || o.Violation() != "" {
		t.Fatalf("feeding the clone changed the origin: ok=%v key %q → %q", o.Ok(), key, o.Key())
	}
	// The origin still has p0 outstanding and p2 idle.
	if err := o.Invoke(0, fi()); err == nil {
		t.Fatal("origin lost p0's outstanding operation to the clone")
	}

	// Same events on a fresh clone and the origin: same observables.
	d := o.Clone()
	for _, ch := range []*Online{o, d} {
		if err := ch.Invoke(2, fi()); err != nil {
			t.Fatal(err)
		}
		if err := ch.Return(0, "1"); err != nil {
			t.Fatal(err)
		}
	}
	if o.Ok() != d.Ok() || o.Key() != d.Key() || o.events != d.events {
		t.Fatalf("origin (%v, %q) and clone (%v, %q) diverged on equal events", o.Ok(), o.Key(), d.Ok(), d.Key())
	}
}
