package explore

import (
	"reflect"
	"testing"

	"jayanti98/internal/algos"
	"jayanti98/internal/universal"
)

// TestRunnerEngines: every explore system runs on the VM — every
// construction (the broken Group-Update too, under -tags mutation)
// through its compiled body, and every zoo algorithm through its own
// chunk. A system without a chunk would run on goroutines, whose
// machines the DFS cannot fork.
func TestRunnerEngines(t *testing.T) {
	var cfgs []Config
	names := universal.Names()
	if universal.MutantAvailable {
		names = append(names, BrokenGroupUpdate)
	}
	for _, name := range names {
		cfgs = append(cfgs, Config{Alg: name, Object: "fetch-increment", N: 2, OpsPerProc: 1})
	}
	for _, name := range algos.Names() {
		spec, _ := algos.For(name)
		cfgs = append(cfgs, Config{Alg: name, Object: spec.Object, N: 2, OpsPerProc: 1})
	}
	for _, cfg := range cfgs {
		r, err := newRunner(cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		for pid, m := range r.ms {
			// Only a VM machine restarts in place.
			if !m.Reset() {
				t.Errorf("%s: machine %d is not on the VM engine", cfg.Alg, pid)
			}
		}
	}
}

// TestRunnerDigestsOnlyWhereRead: a runner keeps its machines' history
// digests exactly when its caller reads the product state. Exhaustive
// search and RunGuided do; a Fuzz walk and RunSchedule do not, and their
// runs are the same runs either way.
func TestRunnerDigestsOnlyWhereRead(t *testing.T) {
	cfg := Config{Alg: "group-update", Object: "fetch-increment", N: 3, OpsPerProc: 1}
	digests := func(r *runner) (on int) {
		for _, m := range r.ms {
			if _, _, enabled := m.HistoryDigest(); enabled {
				on++
			}
		}
		return on
	}
	fuzzed, err := newWalker(cfg, 0, false).walk(nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	guided, err := NewWalker(cfg, 0).walk(nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := digests(fuzzed); got != 0 {
		t.Errorf("a fuzz walk kept %d history digests, want none", got)
	}
	if got := digests(guided); got != cfg.N {
		t.Errorf("a guided walk kept %d history digests, want %d", got, cfg.N)
	}
	if a, b := fuzzed.record(), guided.record(); !reflect.DeepEqual(a, b) {
		t.Errorf("the walks differ:\n%+v\n%+v", a, b)
	}
	for _, digested := range []bool{false, true} {
		r, err := newRunner(cfg, digested)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := digests(r) > 0, digested; got != want {
			t.Errorf("newRunner(digests=%t) keeps digests: %t", digested, got)
		}
	}
}
