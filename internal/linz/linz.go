// Package linz is a linearizability checker for concurrent histories of a
// sequential object type (package objtype), in the style of Wing & Gong's
// algorithm with memoization.
//
// A history is a set of operations, each with an invocation/response
// interval on a global clock and an observed response value. The checker
// searches for a linearization: a total order of all operations that (1)
// respects real time — if a completed operation's response precedes
// another's invocation, it must come first — and (2) replays through the
// sequential specification producing exactly the observed responses.
//
// The search is exponential in the worst case but fast in practice thanks
// to memoizing (chosen-set, state) pairs; histories from the tests here
// (tens of operations, bounded concurrency) check in microseconds. The
// checker is used to validate the universal constructions on the
// concurrent llsc backend, where no adversary round structure exists to
// make correctness self-evident.
package linz

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"jayanti98/internal/objtype"
	"jayanti98/internal/shmem"
)

// Op is one operation in a concurrent history — completed, or pending
// (invoked but never responded).
type Op struct {
	// ID identifies the operation (unique within the history).
	ID int
	// Proc is the invoking process (operations of one process must not
	// overlap).
	Proc int
	// Op is the operation applied to the object.
	Op objtype.Op
	// Response is the observed response; meaningless when Pending.
	Response objtype.Value
	// Invoke and Return are the global-clock timestamps of invocation and
	// response; Invoke < Return. A pending operation has Return set to
	// math.MaxInt64.
	Invoke, Return int64
	// Pending marks an operation that was invoked but never responded.
	// A pending operation may be linearized (with any response — it may
	// have taken effect before the crash/cut) or omitted entirely.
	Pending bool
}

// History is a collection of operations, completed and pending.
type History struct {
	n   int
	ops []Op
}

// NewHistory creates a history for an n-process object.
func NewHistory(n int) *History {
	return &History{n: n}
}

// Add appends a completed operation and returns its ID.
func (h *History) Add(proc int, op objtype.Op, response objtype.Value, invoke, ret int64) int {
	id := len(h.ops)
	h.ops = append(h.ops, Op{ID: id, Proc: proc, Op: op, Response: response, Invoke: invoke, Return: ret})
	return id
}

// AddPending appends a pending operation — invoked at the given timestamp,
// never responded — and returns its ID. The checker treats it as optional:
// a valid linearization may include it (with whatever response the
// sequential specification produces at its linearization point) or drop it.
// A pending operation must be its process's last, since the process never
// finished it.
func (h *History) AddPending(proc int, op objtype.Op, invoke int64) int {
	id := len(h.ops)
	h.ops = append(h.ops, Op{ID: id, Proc: proc, Op: op, Invoke: invoke, Return: math.MaxInt64, Pending: true})
	return id
}

// Validate checks structural sanity: intervals well-formed and per-process
// operations non-overlapping.
func (h *History) Validate() error {
	byProc := make(map[int][]Op)
	for _, op := range h.ops {
		if op.Invoke >= op.Return {
			return fmt.Errorf("linz: op %d has empty interval [%d, %d]", op.ID, op.Invoke, op.Return)
		}
		byProc[op.Proc] = append(byProc[op.Proc], op)
	}
	for proc, ops := range byProc {
		sort.Slice(ops, func(i, j int) bool { return ops[i].Invoke < ops[j].Invoke })
		for i := 1; i < len(ops); i++ {
			if ops[i].Invoke < ops[i-1].Return {
				return fmt.Errorf("linz: process %d has overlapping operations %d and %d", proc, ops[i-1].ID, ops[i].ID)
			}
		}
	}
	return nil
}

// Result reports the outcome of a check.
type Result struct {
	// Linearizable reports whether a valid linearization exists.
	Linearizable bool
	// Order is a witness linearization (operation IDs) when one exists.
	Order []int
	// Explored counts search states visited.
	Explored int
}

// Check searches for a linearization of the history against typ (with the
// initial state for the history's process count). It returns an error only
// for structurally invalid histories; "not linearizable" is reported in
// the Result. An empty history is trivially linearizable. Pending
// operations are optional: they may appear in the witness order (their
// responses are unconstrained) or be left out.
func Check(typ objtype.Type, h *History) (Result, error) {
	if err := h.Validate(); err != nil {
		return Result{}, err
	}
	c := &checker{
		typ:  typ,
		n:    h.n,
		ops:  h.ops,
		memo: make(map[string]bool),
	}
	// Precompute real-time predecessors: op j must precede op i if
	// j.Return < i.Invoke... strictly: j completed before i was invoked.
	// A pending operation (Return = MaxInt64) precedes nothing.
	c.preds = make([][]int, len(h.ops))
	completed := 0
	for i, oi := range h.ops {
		if !oi.Pending {
			completed++
		}
		for j, oj := range h.ops {
			if i != j && oj.Return < oi.Invoke {
				c.preds[i] = append(c.preds[i], j)
			}
		}
	}
	order := make([]int, 0, len(h.ops))
	done := make([]bool, len(h.ops))
	ok := c.search(typ.Init(h.n), done, completed, &order)
	res := Result{Linearizable: ok, Explored: c.explored}
	if ok {
		res.Order = append([]int(nil), order...)
	}
	return res, nil
}

type checker struct {
	typ      objtype.Type
	n        int
	ops      []Op
	preds    [][]int
	memo     map[string]bool
	explored int
}

// search extends the linearization; done marks chosen ops, remaining counts
// the unchosen completed ops (pending ops never count — they are optional),
// order accumulates the witness (in reverse discovery: appended on success
// path going forward).
func (c *checker) search(state objtype.Value, done []bool, remaining int, order *[]int) bool {
	if remaining == 0 {
		return true
	}
	key := c.memoKey(done, state)
	if failed, seen := c.memo[key]; seen && failed {
		return false
	}
	c.explored++
	for i, op := range c.ops {
		if done[i] || !c.ready(i, done) {
			continue
		}
		next, resp := c.typ.Apply(state, op.Op)
		if !op.Pending && !shmem.ValuesEqual(resp, op.Response) {
			continue
		}
		left := remaining
		if !op.Pending {
			left--
		}
		done[i] = true
		*order = append(*order, i)
		if c.search(next, done, left, order) {
			return true
		}
		*order = (*order)[:len(*order)-1]
		done[i] = false
	}
	c.memo[key] = true // this (set, state) cannot be completed
	return false
}

// ready reports whether all real-time predecessors of op i are done.
func (c *checker) ready(i int, done []bool) bool {
	for _, j := range c.preds[i] {
		if !done[j] {
			return false
		}
	}
	return true
}

func (c *checker) memoKey(done []bool, state objtype.Value) string {
	var b strings.Builder
	for _, d := range done {
		if d {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	fmt.Fprintf(&b, "|%v", state)
	return b.String()
}
