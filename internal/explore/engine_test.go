package explore

import (
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
		r, err := newRunner(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for pid, m := range r.ms {
			if got := m.EngineName(); got != "vm" {
				t.Errorf("%s: machine %d on engine %q, want vm", cfg.Alg, pid, got)
			}
		}
	}
}
