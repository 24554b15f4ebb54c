package explore

import (
	"context"
	"fmt"

	"jayanti98/internal/sweep"
)

// Report summarizes an exhaustive exploration.
type Report struct {
	// Cfg echoes the explored configuration (with Budget resolved).
	Cfg Config
	// States counts distinct memoized states. Parallel branches keep
	// independent visited sets, so states reachable from several first
	// steps are counted once per branch; the count is nevertheless
	// deterministic at every worker count.
	States int
	// Runs counts the DFS nodes visited, the root included.
	Runs int
	// Complete counts runs in which every process terminated.
	Complete int
	// Truncated counts leaf runs cut off by the step budget with processes
	// still live. Always 0 for constructions (their budget exhaustion is a
	// Failure); for zoo algorithms (package algos) it measures how much of
	// the schedule space the budget leaves unexplored — randomized TAS
	// livelocks under symmetric schedules, so some truncation is inherent.
	Truncated int
	// Failure is the first failure in branch order, nil if the whole
	// schedule space is clean.
	Failure *Failure
	// Record is the failing run, nil if Failure is nil.
	Record *RunRecord
}

// exhaustiveWorker explores the subtree under one first step with its own
// visited set, on a fresh runner whose online-checker memo lives as long
// as the branch: every fork of the runner checks its history on it, so
// repeated checker events are map lookups. Neither the memo nor a runner
// is goroutine-safe, so forks never leave their branch's worker.
type exhaustiveWorker struct {
	ctx       context.Context
	visited   map[string]bool
	keyBuf    []byte // reused memo-key scratch (appendMemoKey)
	runs      int
	complete  int
	truncated int
}

// Exhaustive enumerates every schedule of cfg by depth-first search over
// interleavings, pruning prefixes whose product state (machine histories,
// memory fingerprint, online-checker configs) was already visited. The
// subtrees under the n possible first steps are explored in parallel on up
// to `workers` goroutines (sweep.Workers semantics); the result — including
// which failure is reported — is deterministic at every worker count,
// because branches are independent and the lowest branch's failure wins.
//
// Exhaustive requires a deterministic toss assignment (it explores
// schedules, not coin flips): cfg.Tosses must be nil or pure.
func Exhaustive(cfg Config, workers int) (*Report, error) {
	return ExhaustiveCtx(context.Background(), cfg, workers)
}

// ExhaustiveCtx is Exhaustive under a context: cancellation aborts the
// search — both across branches (no new branch is dispatched) and inside a
// branch (the DFS checks ctx at every node) — and returns ctx.Err(). A
// cancelled search yields no report.
func ExhaustiveCtx(ctx context.Context, cfg Config, workers int) (*Report, error) {
	root, err := newRunner(cfg, true)
	if err != nil {
		return nil, err
	}
	cfg.Budget = root.budget // resolve for the report
	rep := &Report{Cfg: cfg, Runs: 1}
	if root.fail != nil {
		rep.Failure = root.fail
		rep.Record = root.record()
		return rep, nil
	}
	if root.done() {
		if err := root.finalCheck(); err != nil {
			return nil, err
		}
		rep.Complete = 1
		rep.Failure = root.fail
		if root.fail != nil {
			rep.Record = root.record()
		}
		return rep, nil
	}
	branches := root.enabled()

	type branchResult struct {
		states, runs, complete, truncated int
		failure                           *Failure
		record                            *RunRecord
	}
	results, err := sweep.MapCtx(ctx, workers, len(branches), func(i int) (branchResult, error) {
		r, err := newRunner(cfg, true)
		if err != nil {
			return branchResult{}, err
		}
		w := &exhaustiveWorker{ctx: ctx, visited: make(map[string]bool)}
		f, rec, err := w.dfs(branches[i], r)
		if err != nil {
			return branchResult{}, err
		}
		return branchResult{states: len(w.visited), runs: w.runs, complete: w.complete, truncated: w.truncated, failure: f, record: rec}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, br := range results {
		rep.States += br.states
		rep.Runs += br.runs
		rep.Complete += br.complete
		rep.Truncated += br.truncated
		if rep.Failure == nil && br.failure != nil {
			rep.Failure = br.failure
			rep.Record = br.record
		}
	}
	return rep, nil
}

// dfs visits the DFS node reached by stepping pid on r, a live runner at
// the parent node: the parent's own runner or a fork of it. It recurses on
// every enabled process and returns the first failure found in its
// subtree (with the failing run's record), or nil if the subtree is clean.
func (e *exhaustiveWorker) dfs(pid int, r *runner) (*Failure, *RunRecord, error) {
	if err := e.ctx.Err(); err != nil {
		return nil, nil, err
	}
	e.runs++
	if !r.step(pid) && r.fail == nil {
		return nil, nil, fmt.Errorf("explore: internal: pid %d not enabled after its parent node", pid)
	}
	if r.fail != nil {
		return r.fail, r.record(), nil
	}
	if r.done() {
		e.complete++
		if err := r.finalCheck(); err != nil {
			return nil, nil, err
		}
		if r.fail != nil {
			return r.fail, r.record(), nil
		}
		return nil, nil, nil
	}
	if r.truncated() {
		// A zoo algorithm out of budget: nothing is enabled below this
		// prefix, so it is a leaf — count it, don't memoize it.
		e.truncated++
		return nil, nil, nil
	}
	e.keyBuf = r.appendMemoKey(e.keyBuf[:0])
	key := string(e.keyBuf)
	if e.visited[key] {
		return nil, nil, nil
	}
	e.visited[key] = true
	// Every child but the last steps a fork of this node's runner, and the
	// last continues the runner itself, so no prefix is ever re-executed.
	// A node holds its runner until its last child, so at most depth + 1
	// runners are live.
	en := r.enabled()
	for i, next := range en {
		live := r
		if i < len(en)-1 {
			live = r.fork()
		}
		if f, rec, err := e.dfs(next, live); f != nil || err != nil {
			return f, rec, err
		}
	}
	return nil, nil, nil
}
