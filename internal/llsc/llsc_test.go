package llsc

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"jayanti98/internal/objtype"
	"jayanti98/internal/shmem"
	"jayanti98/internal/universal"
)

func TestBasicSemanticsMatchSimulator(t *testing.T) {
	m := New(2)
	h0, h1 := m.Handle(0), m.Handle(1)

	if v := h0.LL(0); v != nil {
		t.Fatalf("LL fresh = %v", v)
	}
	if ok, prev := h0.SC(0, "a"); !ok || prev != nil {
		t.Fatalf("SC after LL = (%t, %v)", ok, prev)
	}
	if ok, prev := h1.SC(0, "b"); ok || prev != "a" {
		t.Fatalf("SC without LL = (%t, %v)", ok, prev)
	}
	h1.LL(0)
	h0.Swap(0, "c")
	if ok, _ := h1.SC(0, "d"); ok {
		t.Fatal("swap must invalidate links")
	}
	if ok, v := h1.Validate(0); ok || v != "c" {
		t.Fatalf("validate = (%t, %v)", ok, v)
	}
	h0.Swap(5, "src")
	m.Apply(1, shmem.Op{Kind: shmem.OpMove, Src: 5, Reg: 6})
	if v := h0.Read(6); v != "src" {
		t.Fatalf("move: R6 = %v", v)
	}
	if v := h0.Read(5); v != "src" {
		t.Fatalf("move must leave source: R5 = %v", v)
	}
}

func TestStepsCounted(t *testing.T) {
	m := New(2)
	h := m.Handle(1)
	h.LL(0)
	h.SC(0, 1)
	h.Read(0)
	if got := m.Steps(1); got != 3 {
		t.Fatalf("Steps(1) = %d, want 3", got)
	}
	if got := m.TotalSteps(); got != 3 {
		t.Fatalf("TotalSteps = %d, want 3", got)
	}
	if v := h.Read(0); v != 1 {
		t.Fatalf("Read = %v, want 1", v)
	}
}

func TestHandleOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range pid must panic")
		}
	}()
	New(2).Handle(2)
}

func TestConcurrentSCAtMostOneWinnerPerLink(t *testing.T) {
	// All goroutines LL the same register, then all attempt SC: exactly
	// one must win (they all hold links from before any write).
	const n = 16
	m := New(n)
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	wins := make(chan int, n)
	ready.Add(n)
	done.Add(n)
	for pid := 0; pid < n; pid++ {
		go func(pid int) {
			defer done.Done()
			h := m.Handle(pid)
			h.LL(0)
			ready.Done()
			<-start
			if ok, _ := h.SC(0, pid); ok {
				wins <- pid
			}
		}(pid)
	}
	ready.Wait()
	close(start)
	done.Wait()
	close(wins)
	count := 0
	for range wins {
		count++
	}
	if count != 1 {
		t.Fatalf("%d successful SCs, want exactly 1", count)
	}
}

// TestConcurrentFetchIncrementAllConstructions is the concurrency
// flagship: G real goroutines share a fetch&increment object through each
// universal construction; the responses must be a permutation of 0..G−1
// (linearizability) under -race.
func TestConcurrentFetchIncrementAllConstructions(t *testing.T) {
	const n = 12
	typ := objtype.NewFetchIncrement(16)
	for _, mk := range []func() universal.Construction{
		func() universal.Construction { return universal.NewGroupUpdate(typ, n, 0) },
		func() universal.Construction { return universal.NewHerlihy(typ, n, 0) },
		func() universal.Construction { return universal.NewCentral(typ, n, 0) },
	} {
		obj := mk()
		m := New(n)
		results := make([]objtype.Value, n)
		var wg sync.WaitGroup
		wg.Add(n)
		for pid := 0; pid < n; pid++ {
			go func(pid int) {
				defer wg.Done()
				results[pid] = obj.Invoke(m.Handle(pid), objtype.Op{Name: objtype.OpFetchIncrement})
			}(pid)
		}
		wg.Wait()
		seen := make(map[objtype.Value]bool, n)
		for pid, v := range results {
			if seen[v] {
				t.Fatalf("%s: duplicate response %v (p%d)", obj.Name(), v, pid)
			}
			seen[v] = true
		}
		for i := 0; i < n; i++ {
			if !seen[objtype.HexUint(uint64(i))] {
				t.Fatalf("%s: missing response %d", obj.Name(), i)
			}
		}
	}
}

func TestConcurrentQueueNoLossNoDuplication(t *testing.T) {
	const n = 10
	obj := universal.NewGroupUpdate(objtype.NewEmptyQueue(), n, 0)
	m := New(n)
	popped := make([]objtype.Value, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for pid := 0; pid < n; pid++ {
		go func(pid int) {
			defer wg.Done()
			h := m.Handle(pid)
			obj.Invoke(h, objtype.Op{Name: objtype.OpEnqueue, Arg: pid})
			popped[pid] = obj.Invoke(h, objtype.Op{Name: objtype.OpDequeue})
		}(pid)
	}
	wg.Wait()
	seen := make(map[objtype.Value]bool)
	for pid, v := range popped {
		if v == objtype.Empty {
			continue
		}
		if seen[v] {
			t.Fatalf("item %v dequeued twice (p%d)", v, pid)
		}
		seen[v] = true
	}
}

func TestConcurrentStepBoundHolds(t *testing.T) {
	// Wait-freedom is per-operation: even under real concurrency no
	// invocation may exceed the documented bound.
	const n = 8
	typ := objtype.NewFetchIncrement(16)
	obj := universal.NewGroupUpdate(typ, n, 0)
	m := New(n)
	var wg sync.WaitGroup
	wg.Add(n)
	excess := make(chan int64, n)
	for pid := 0; pid < n; pid++ {
		go func(pid int) {
			defer wg.Done()
			before := m.Steps(pid)
			obj.Invoke(m.Handle(pid), objtype.Op{Name: objtype.OpFetchIncrement})
			if used := m.Steps(pid) - before; used > int64(obj.StepBound()) {
				excess <- used
			}
		}(pid)
	}
	wg.Wait()
	close(excess)
	for e := range excess {
		t.Fatalf("an invocation used %d steps, above the bound %d", e, obj.StepBound())
	}
}

// TestAppendFingerprintDiscriminates pins the binary fingerprint's
// properties: deterministic, value-sensitive, Pset-sensitive,
// register-index-sensitive, and self-delimiting under concatenation.
func TestAppendFingerprintDiscriminates(t *testing.T) {
	build := func(f func(m *Memory)) string {
		m := New(2)
		f(m)
		return string(m.AppendFingerprint(nil))
	}
	base := build(func(m *Memory) { m.Handle(0).LL(0) })
	if base != build(func(m *Memory) { m.Handle(0).LL(0) }) {
		t.Fatal("fingerprint not deterministic")
	}
	if base == build(func(m *Memory) { m.Handle(1).LL(0) }) {
		t.Fatal("fingerprint insensitive to Pset membership")
	}
	if base == build(func(m *Memory) { m.Handle(0).LL(1) }) {
		t.Fatal("fingerprint insensitive to register index")
	}
	if base == build(func(m *Memory) { m.Handle(0).Swap(0, "x") }) {
		t.Fatal("fingerprint insensitive to value")
	}
	// A successful SC clears the Pset: state differs from post-LL.
	afterSC := build(func(m *Memory) {
		h := m.Handle(0)
		h.LL(0)
		h.SC(0, nil)
	})
	if base == afterSC {
		t.Fatal("fingerprint insensitive to SC clearing the Pset")
	}
	// Appending reuses dst and preserves the prefix.
	m := New(2)
	m.Handle(0).LL(0)
	out := m.AppendFingerprint([]byte("pre"))
	if string(out[:3]) != "pre" {
		t.Fatalf("AppendFingerprint clobbered dst: %q", out)
	}
}

// TestFingerprintAgreesWithString checks that the binary fingerprint and
// the string rendering of the register snapshot induce the same
// equivalence on a family of small states: binary keys are equal exactly
// when the rendered snapshots are.
func TestFingerprintAgreesWithString(t *testing.T) {
	states := []func(m *Memory){
		func(m *Memory) {},
		func(m *Memory) { m.Handle(0).LL(0) },
		func(m *Memory) { m.Handle(1).LL(0) },
		func(m *Memory) { m.Handle(0).LL(1) },
		func(m *Memory) { m.Handle(0).Swap(0, 7) },
		func(m *Memory) { m.Handle(0).Swap(0, "7") },
		func(m *Memory) { h := m.Handle(0); h.LL(0); h.SC(0, 7) },
		func(m *Memory) { h := m.Handle(0); h.LL(2); m.Handle(1).LL(2) },
		func(m *Memory) { m.Apply(0, shmem.Op{Kind: shmem.OpMove, Src: 0, Reg: 1}) },
	}
	type pair struct{ str, bin string }
	pairs := make([]pair, len(states))
	for i, f := range states {
		m := New(2)
		f(m)
		pairs[i] = pair{fmt.Sprint(m.mem.Snapshot()), string(m.AppendFingerprint(nil))}
	}
	for i := range pairs {
		for j := range pairs {
			if (pairs[i].str == pairs[j].str) != (pairs[i].bin == pairs[j].bin) {
				t.Errorf("fingerprint forms disagree on states %d vs %d: str %q/%q bin %x/%x",
					i, j, pairs[i].str, pairs[j].str, pairs[i].bin, pairs[j].bin)
			}
		}
	}
}

// TestConcurrentHandlesAndReaders drives one Memory from n goroutines
// through their handles while another goroutine reads the whole memory
// through AppendFingerprint, Clone, Steps and TotalSteps.
// The writers keep touching fresh registers, so the reader iterates the
// register map and touched index while they grow. Under -race this shows
// that shmem's maps, its step counters and its shared fingerprint scratch
// buffer all sit under the one mutex.
//
// The writers start only after the reader's first round, and halfway
// through they wait for its second. So the second round overlaps the
// writers' first halves, and nothing but the mutex orders them.
func TestConcurrentHandlesAndReaders(t *testing.T) {
	const n, ops = 4, 200
	m := New(n)
	start, overlapped, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(n)
	for pid := 0; pid < n; pid++ {
		go func(h *Handle) {
			defer writers.Done()
			<-start
			for i := 0; i < ops; i++ {
				if i == ops/2 {
					<-overlapped
				}
				switch i % 4 {
				case 0:
					h.LL(0)
				case 1:
					h.SC(0, i)
				case 2:
					h.Swap(1+h.ID()*ops+i, i)
				default:
					m.Apply(h.ID(), shmem.Op{Kind: shmem.OpMove, Src: 0, Reg: 1 + h.ID()*ops + i})
				}
			}
		}(m.Handle(pid))
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var buf []byte
		read := func(round int) {
			buf = m.AppendFingerprint(buf[:0])
			c := m.Clone()
			_ = c.AppendFingerprint(nil)
			_ = m.Steps(round%n) + m.TotalSteps()
		}
		read(0)
		close(start)
		read(1)
		close(overlapped)
		for round := 2; ; round++ {
			select {
			case <-done:
				return
			default:
			}
			read(round)
		}
	}()
	writers.Wait()
	close(done)
	<-readerDone
	if got := m.TotalSteps(); got != n*ops {
		t.Fatalf("TotalSteps = %d, want %d", got, n*ops)
	}
	for pid := 0; pid < n; pid++ {
		if got := m.Steps(pid); got != ops {
			t.Fatalf("Steps(%d) = %d, want %d", pid, got, ops)
		}
	}
	if c := m.Clone(); !bytes.Equal(c.AppendFingerprint(nil), m.AppendFingerprint(nil)) {
		t.Fatal("a quiesced clone differs from its origin")
	}
}
