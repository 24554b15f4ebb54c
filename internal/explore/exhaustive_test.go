package explore

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"jayanti98/internal/sweep"
)

// referenceExhaustive is the search ExhaustiveCtx replaced, kept as its
// oracle: every DFS node builds a runner with a private checker memo and
// re-executes its whole prefix from scratch.
func referenceExhaustive(cfg Config, workers int) (*Report, error) {
	root, err := newRunner(cfg, true)
	if err != nil {
		return nil, err
	}
	cfg.Budget = root.budget
	rep := &Report{Cfg: cfg, Runs: 1}
	if root.fail != nil {
		rep.Failure, rep.Record = root.fail, root.record()
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
	type branchResult struct {
		states, runs, complete, truncated int
		failure                           *Failure
		record                            *RunRecord
	}
	branches := root.enabled()
	results, err := sweep.MapCtx(context.Background(), workers, len(branches), func(i int) (branchResult, error) {
		w := &referenceWorker{cfg: cfg, visited: make(map[string]bool)}
		f, rec, err := w.dfs([]int{branches[i]})
		return branchResult{states: len(w.visited), runs: w.runs, complete: w.complete, truncated: w.truncated, failure: f, record: rec}, err
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
			rep.Failure, rep.Record = br.failure, br.record
		}
	}
	return rep, nil
}

type referenceWorker struct {
	cfg                       Config
	visited                   map[string]bool
	runs, complete, truncated int
}

func (w *referenceWorker) dfs(prefix []int) (*Failure, *RunRecord, error) {
	r, err := newRunner(w.cfg, true)
	if err != nil {
		return nil, nil, err
	}
	w.runs++
	for _, pid := range prefix {
		if r.fail != nil {
			break
		}
		if !r.step(pid) && r.fail == nil {
			return nil, nil, fmt.Errorf("reference: prefix pid %d not enabled", pid)
		}
	}
	if r.fail != nil {
		return r.fail, r.record(), nil
	}
	if r.done() {
		w.complete++
		if err := r.finalCheck(); err != nil {
			return nil, nil, err
		}
		if r.fail != nil {
			return r.fail, r.record(), nil
		}
		return nil, nil, nil
	}
	if r.truncated() {
		w.truncated++
		return nil, nil, nil
	}
	key := string(r.appendMemoKey(nil))
	if w.visited[key] {
		return nil, nil, nil
	}
	w.visited[key] = true
	for _, pid := range r.enabled() {
		f, rec, err := w.dfs(append(prefix[:len(prefix):len(prefix)], pid))
		if f != nil || err != nil {
			return f, rec, err
		}
	}
	return nil, nil, nil
}

// checkAgainstReference asserts that the live search and the replaying
// reference produce identical Reports — counters, failure and failing
// record — at one and at four workers, and returns the live report.
func checkAgainstReference(t *testing.T, cfg Config) *Report {
	t.Helper()
	var got *Report
	for _, workers := range []int{1, 4} {
		rep, err := Exhaustive(cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := referenceExhaustive(cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, ref) {
			t.Fatalf("%s n=%d at %d workers: live search\n  %+v\nreference\n  %+v", cfg.Alg, cfg.N, workers, rep, ref)
		}
		got = rep
	}
	return got
}

// TestExhaustiveMatchesReference: forking each node's runner for its
// children and sharing one checker memo per branch changes no Report
// field, on every golden n=2 system (tas-tournament on both LL/SC
// backends), on herlihy's queue workload and on central at n=3.
func TestExhaustiveMatchesReference(t *testing.T) {
	cases := []Config{
		{Alg: "central", Object: "fetch-increment", N: 2, OpsPerProc: 1},
		{Alg: "central", Object: "fetch-increment", N: 3, OpsPerProc: 1},
		{Alg: "group-update", Object: "fetch-increment", N: 2, OpsPerProc: 1},
		{Alg: "herlihy", Object: "fetch-increment", N: 2, OpsPerProc: 1},
		{Alg: "tas-tv", Object: "tas", N: 2, OpsPerProc: 1},
		{Alg: "tas-tournament", Object: "tas", N: 2, OpsPerProc: 1},
		{Alg: "tas-tournament", Object: "tas", N: 2, OpsPerProc: 1, LLSC: "bw"},
		{Alg: "herlihy", Object: "queue", N: 2, OpsPerProc: 1},
		// A failing search: budget exhaustion is a construction failure.
		{Alg: "central", Object: "fetch-increment", N: 2, OpsPerProc: 1, Budget: 5},
	}
	for _, cfg := range cases {
		cfg := cfg
		name := fmt.Sprintf("%s/n=%d/budget=%d", cfg.Alg, cfg.N, cfg.Budget)
		if cfg.LLSC != "" {
			name += "/" + cfg.LLSC
		}
		if cfg.Object == "queue" {
			name += "/queue"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rep := checkAgainstReference(t, cfg)
			if (cfg.Budget != 0) != (rep.Failure != nil) {
				t.Fatalf("failure = %v", rep.Failure)
			}
		})
	}
}

// cancelAfter is a context whose Err turns context.Canceled after n
// calls: a deterministic cancellation in the middle of a search.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// waitGoroutines waits for the goroutine count to fall back to base; a
// finished worker's goroutine may take a moment to exit.
func waitGoroutines(t *testing.T, base int, after string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("after %s: %d goroutines, started with %d\n%s", after, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExhaustiveClosesEveryRunner: every runner a search builds or forks
// is let go with it, so no goroutine outlives a search, whether it is
// clean, fails, or is cancelled in the middle at one or several workers.
// Its one subtest, "auto", runs each system on the engine its algorithm
// picks, the only one explore has.
func TestExhaustiveClosesEveryRunner(t *testing.T) {
	t.Run("auto", func(t *testing.T) {
		base := runtime.NumGoroutine()
		rep, err := Exhaustive(Config{Alg: "group-update", Object: "fetch-increment", N: 2, OpsPerProc: 1}, 1)
		if err != nil || rep.Failure != nil {
			t.Fatalf("clean search: %v, %v", err, rep.Failure)
		}
		waitGoroutines(t, base, "a clean search")

		rep, err = Exhaustive(Config{Alg: "central", Object: "fetch-increment", N: 2, OpsPerProc: 1, Budget: 5}, 1)
		if err != nil || rep.Failure == nil {
			t.Fatalf("failing search: %v, %+v", err, rep)
		}
		waitGoroutines(t, base, "a failing search")

		// Cancel at several depths of the search.
		for _, workers := range []int{1, 4} {
			for _, after := range []int64{3, 40, 200, 201} {
				ctx := &cancelAfter{Context: context.Background()}
				ctx.n.Store(after)
				if _, err := ExhaustiveCtx(ctx, Config{Alg: "central", Object: "fetch-increment", N: 3, OpsPerProc: 1}, workers); err != context.Canceled {
					t.Fatalf("search cancelled after %d checks at %d workers: err = %v, want context.Canceled", after, workers, err)
				}
				waitGoroutines(t, base, fmt.Sprintf("a search cancelled after %d checks at %d workers", after, workers))
			}
		}
	})
}

// stepAll steps r along schedule, failing the test if a pid is disabled.
func stepAll(t *testing.T, r *runner, schedule []int) {
	t.Helper()
	for _, pid := range schedule {
		if !r.step(pid) && r.fail == nil {
			t.Fatalf("pid %d not enabled", pid)
		}
	}
}

// runnerState is everything a DFS node reads of a runner: its record, its
// memo key and its memory fingerprint.
type runnerState struct {
	rec         *RunRecord
	key, memory string
}

func stateOf(r *runner) runnerState {
	return runnerState{rec: r.record(), key: string(r.appendMemoKey(nil)), memory: r.mem.Fingerprint()}
}

// TestRunnerFork: a forked runner and its origin, stepped along the same
// suffix, reach the same record, memo key and memory fingerprint as a
// runner that replayed the whole schedule; stepping the fork first never
// changes the origin, and vice versa.
func TestRunnerFork(t *testing.T) {
	cases := []struct {
		cfg            Config
		prefix, suffix []int
	}{
		{Config{Alg: "group-update", Object: "fetch-increment", N: 3, OpsPerProc: 2}, []int{0, 1, 1, 2, 0}, []int{2, 2, 1, 0, 0, 1, 2, 1, 0}},
		{Config{Alg: "herlihy", Object: "queue", N: 3, OpsPerProc: 1}, []int{1, 0, 2, 1}, []int{0, 0, 2, 1, 2, 0}},
		{Config{Alg: "central", Object: "tas", N: 2, OpsPerProc: 1}, []int{0}, []int{1, 0, 1, 1}},
		{Config{Alg: "tas-tournament", Object: "tas", N: 3, OpsPerProc: 1, LLSC: "bw"}, []int{0, 1, 2, 0}, []int{1, 2, 0, 1, 2, 2}},
		{Config{Alg: "tas-tv", Object: "tas", N: 2, OpsPerProc: 1, Tosses: func(pid, j int) int64 { return int64(pid + j) }}, []int{0, 1}, []int{0, 1, 1, 0}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/%s/n=%d", tc.cfg.Alg, tc.cfg.LLSC, tc.cfg.N), func(t *testing.T) {
			ref, err := newRunner(tc.cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			stepAll(t, ref, append(append([]int(nil), tc.prefix...), tc.suffix...))
			want := stateOf(ref)

			origin, err := newRunner(tc.cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			stepAll(t, origin, tc.prefix)
			atFork := stateOf(origin)
			fork := origin.fork()
			if got := stateOf(fork); !reflect.DeepEqual(got, atFork) {
				t.Fatalf("fork starts at\n  %+v\norigin is at\n  %+v", got, atFork)
			}
			stepAll(t, fork, tc.suffix)
			if got := stateOf(origin); !reflect.DeepEqual(got, atFork) {
				t.Fatalf("stepping the fork moved the origin to\n  %+v", got)
			}
			second := origin.fork()
			stepAll(t, origin, tc.suffix)
			for name, r := range map[string]*runner{"fork": fork, "origin": origin} {
				if got := stateOf(r); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s after the suffix:\n  %+v\nreplayed runner:\n  %+v", name, got, want)
				}
			}
			if got := stateOf(second); !reflect.DeepEqual(got, atFork) {
				t.Fatalf("stepping the origin moved its second fork to\n  %+v", got)
			}
		})
	}
}
