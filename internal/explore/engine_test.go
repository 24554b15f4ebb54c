package explore

import (
	"testing"

	"jayanti98/internal/machine"
)

// TestExhaustiveGoldenEngines re-runs the quick exhaustive-golden cases
// under each forced execution engine and asserts the Report counters are
// identical to the pinned values. Every explore system carries a compiled
// chunk — the constructions their workload body around the construction's
// compiled Invoke twin (body.go, universal.InvokeStmts), the zoo's TAS
// algorithms their own twin — so EngineVM runs bytecode everywhere (and
// forks runners instead of replaying prefixes), while EngineGoroutine runs
// the direct-style bodies and the replaying fallback. The same counts on
// both engines prove the twins' yield sequences, register values, history
// digests and event logs coincide action for action. This pins that
// flipping the process-level default engine (as cmd -engine flags and
// LB_ENGINE do) cannot perturb state enumeration, memoization, or
// completion counting.
//
// Deliberately NOT parallel: SetDefaultEngine is process-global state.
func TestExhaustiveGoldenEngines(t *testing.T) {
	cases := []struct {
		alg                               string
		object                            string
		n                                 int
		states, runs, complete, truncated int
	}{
		{alg: "central", object: "fetch-increment", n: 2, states: 20, runs: 27, complete: 6},
		{alg: "group-update", object: "fetch-increment", n: 2, states: 384, runs: 607, complete: 48},
		{alg: "herlihy", object: "fetch-increment", n: 2, states: 312, runs: 499, complete: 48},
		{alg: "tas-tv", object: "tas", n: 2, states: 532, runs: 957, complete: 50, truncated: 218},
		{alg: "tas-tournament", object: "tas", n: 2, states: 1594, runs: 2741, complete: 140, truncated: 536},
	}
	engines := []machine.Engine{machine.EngineGoroutine, machine.EngineVM}
	for _, eng := range engines {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			prev := machine.SetDefaultEngine(eng)
			defer machine.SetDefaultEngine(prev)
			for _, tc := range cases {
				rep, err := Exhaustive(Config{Alg: tc.alg, Object: tc.object, N: tc.n, OpsPerProc: 1}, 1)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Failure != nil {
					t.Fatalf("%s n=%d [%s]: unexpected failure: %v", tc.alg, tc.n, eng, rep.Failure)
				}
				if rep.States != tc.states || rep.Runs != tc.runs || rep.Complete != tc.complete || rep.Truncated != tc.truncated {
					t.Errorf("%s n=%d [%s]: got (states=%d runs=%d complete=%d truncated=%d), want (states=%d runs=%d complete=%d truncated=%d)",
						tc.alg, tc.n, eng, rep.States, rep.Runs, rep.Complete, rep.Truncated, tc.states, tc.runs, tc.complete, tc.truncated)
				}
			}
		})
	}
}

// TestRunnerEngines: every explore system runs on the VM under EngineAuto
// and on goroutines under EngineGoroutine. Without it a silent fallback to
// the goroutine engine would keep every count and hide the lost speed.
//
// Deliberately NOT parallel: SetDefaultEngine is process-global state.
func TestRunnerEngines(t *testing.T) {
	cfgs := []Config{
		{Alg: "central", Object: "fetch-increment", N: 2, OpsPerProc: 1},
		{Alg: "group-update", Object: "queue", N: 3, OpsPerProc: 2},
		{Alg: "herlihy", Object: "tas", N: 2, OpsPerProc: 1},
		{Alg: "tas-tv", Object: "tas", N: 2, OpsPerProc: 1},
		{Alg: "tas-tournament", Object: "tas", N: 3, OpsPerProc: 1, LLSC: "bw"},
	}
	for eng, want := range map[machine.Engine]string{machine.EngineAuto: "vm", machine.EngineGoroutine: "goroutine"} {
		prev := machine.SetDefaultEngine(eng)
		for _, cfg := range cfgs {
			r, err := newRunner(cfg, nil)
			if err != nil {
				machine.SetDefaultEngine(prev)
				t.Fatal(err)
			}
			for pid, m := range r.ms {
				if got := m.EngineName(); got != want {
					t.Errorf("%s n=%d under %s: machine %d on engine %q, want %q", cfg.Alg, cfg.N, eng, pid, got, want)
				}
			}
			if r.forkable() != (want == "vm") {
				t.Errorf("%s n=%d under %s: forkable = %v", cfg.Alg, cfg.N, eng, r.forkable())
			}
			r.close()
		}
		machine.SetDefaultEngine(prev)
	}
}
