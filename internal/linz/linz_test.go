package linz

import (
	"sync"
	"sync/atomic"
	"testing"

	"jayanti98/internal/llsc"
	"jayanti98/internal/objtype"
	"jayanti98/internal/universal"
)

func TestSequentialHistoryLinearizable(t *testing.T) {
	typ := objtype.NewFetchIncrement(8)
	h := NewHistory(2)
	h.Add(0, objtype.Op{Name: objtype.OpFetchIncrement}, "0", 1, 2)
	h.Add(1, objtype.Op{Name: objtype.OpFetchIncrement}, "1", 3, 4)
	res, err := Check(typ, h)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Linearizable {
		t.Fatal("sequential history must linearize")
	}
	if len(res.Order) != 2 || res.Order[0] != 0 {
		t.Fatalf("witness order = %v", res.Order)
	}
}

func TestRealTimeOrderViolationDetected(t *testing.T) {
	typ := objtype.NewFetchIncrement(8)
	h := NewHistory(2)
	// p0 completes first but observed the SECOND ticket: impossible.
	h.Add(0, objtype.Op{Name: objtype.OpFetchIncrement}, "1", 1, 2)
	h.Add(1, objtype.Op{Name: objtype.OpFetchIncrement}, "0", 3, 4)
	res, err := Check(typ, h)
	if err != nil {
		t.Fatal(err)
	}
	if res.Linearizable {
		t.Fatal("real-time violation must be rejected")
	}
}

func TestConcurrentOverlapAllowsEitherOrder(t *testing.T) {
	typ := objtype.NewFetchIncrement(8)
	h := NewHistory(2)
	// Overlapping ops: tickets may land either way.
	h.Add(0, objtype.Op{Name: objtype.OpFetchIncrement}, "1", 1, 10)
	h.Add(1, objtype.Op{Name: objtype.OpFetchIncrement}, "0", 2, 9)
	res, err := Check(typ, h)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Linearizable {
		t.Fatal("overlapping ops may linearize in either order")
	}
}

func TestDuplicateTicketNotLinearizable(t *testing.T) {
	typ := objtype.NewFetchIncrement(8)
	h := NewHistory(2)
	h.Add(0, objtype.Op{Name: objtype.OpFetchIncrement}, "0", 1, 10)
	h.Add(1, objtype.Op{Name: objtype.OpFetchIncrement}, "0", 2, 9)
	res, err := Check(typ, h)
	if err != nil {
		t.Fatal(err)
	}
	if res.Linearizable {
		t.Fatal("two identical fetch&increment responses cannot linearize")
	}
}

func TestQueueHistoryFIFOChecked(t *testing.T) {
	typ := objtype.NewEmptyQueue()
	h := NewHistory(2)
	h.Add(0, objtype.Op{Name: objtype.OpEnqueue, Arg: "a"}, nil, 1, 2)
	h.Add(0, objtype.Op{Name: objtype.OpEnqueue, Arg: "b"}, nil, 3, 4)
	h.Add(1, objtype.Op{Name: objtype.OpDequeue}, "a", 5, 6)
	res, err := Check(typ, h)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Linearizable {
		t.Fatal("FIFO history must linearize")
	}

	// Dequeuing "b" first while both enqueues strictly precede it is a
	// FIFO violation.
	h2 := NewHistory(2)
	h2.Add(0, objtype.Op{Name: objtype.OpEnqueue, Arg: "a"}, nil, 1, 2)
	h2.Add(0, objtype.Op{Name: objtype.OpEnqueue, Arg: "b"}, nil, 3, 4)
	h2.Add(1, objtype.Op{Name: objtype.OpDequeue}, "b", 5, 6)
	res, err = Check(typ, h2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Linearizable {
		t.Fatal("LIFO-looking dequeue must be rejected for a queue")
	}
}

func TestValidateRejectsBadHistories(t *testing.T) {
	h := NewHistory(1)
	h.Add(0, objtype.Op{Name: objtype.OpRead}, nil, 5, 5)
	if err := h.Validate(); err == nil {
		t.Fatal("empty interval must be rejected")
	}
	h2 := NewHistory(1)
	h2.Add(0, objtype.Op{Name: objtype.OpRead}, nil, 1, 10)
	h2.Add(0, objtype.Op{Name: objtype.OpRead}, nil, 5, 12)
	if err := h2.Validate(); err == nil {
		t.Fatal("overlapping same-process ops must be rejected")
	}
	if _, err := Check(objtype.NewEmptyQueue(), h2); err == nil {
		t.Fatal("Check must propagate validation errors")
	}
}

func TestEmptyHistory(t *testing.T) {
	res, err := Check(objtype.NewEmptyQueue(), NewHistory(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Linearizable || len(res.Order) != 0 {
		t.Fatalf("empty history: %+v", res)
	}
}

// runConcurrent drives k ops per process through obj on the llsc backend
// and records the history.
func runConcurrent(t *testing.T, obj universal.Construction, n, k int, op func(pid, i int) objtype.Op) *History {
	t.Helper()
	mem := llsc.New(n)
	hist := NewHistory(n)
	var clock atomic.Int64 // logical time of invocations and responses
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(n)
	for pid := 0; pid < n; pid++ {
		go func(pid int) {
			defer wg.Done()
			h := mem.Handle(pid)
			for i := 0; i < k; i++ {
				o := op(pid, i)
				inv := clock.Add(1)
				resp := obj.Invoke(h, o)
				ret := clock.Add(1)
				mu.Lock()
				hist.Add(pid, o, resp, inv, ret)
				mu.Unlock()
			}
		}(pid)
	}
	wg.Wait()
	return hist
}

// TestConstructionsLinearizableOnLLSC is the end-to-end payoff: concurrent
// histories produced by every universal construction on the concurrent
// backend pass the checker for both a counter and a queue.
func TestConstructionsLinearizableOnLLSC(t *testing.T) {
	const n, k = 4, 3
	counter := objtype.NewFetchIncrement(16)
	queue := objtype.NewEmptyQueue()
	for _, mk := range []func(objtype.Type) universal.Construction{
		func(typ objtype.Type) universal.Construction { return universal.NewGroupUpdate(typ, n, 0) },
		func(typ objtype.Type) universal.Construction { return universal.NewHerlihy(typ, n, 0) },
		func(typ objtype.Type) universal.Construction { return universal.NewCentral(typ, n, 0) },
	} {
		obj := mk(counter)
		h := runConcurrent(t, obj, n, k, func(pid, i int) objtype.Op {
			return objtype.Op{Name: objtype.OpFetchIncrement}
		})
		res, err := Check(counter, h)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Linearizable {
			t.Fatalf("%s counter history not linearizable (%d ops)", obj.Name(), len(h.ops))
		}

		qobj := mk(queue)
		h = runConcurrent(t, qobj, n, k, func(pid, i int) objtype.Op {
			if i%2 == 0 {
				return objtype.Op{Name: objtype.OpEnqueue, Arg: pid*10 + i}
			}
			return objtype.Op{Name: objtype.OpDequeue}
		})
		res, err = Check(queue, h)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Linearizable {
			t.Fatalf("%s queue history not linearizable (%d ops)", qobj.Name(), len(h.ops))
		}
	}
}
