// Package algos is the registry of the related-work algorithm zoo: shared
// objects implemented directly as machine.Algorithm protocols, as opposed
// to the oblivious universal constructions of package universal. Where a
// universal construction turns any sequential type into a shared object,
// each algorithm here implements one specific type — currently the
// randomized test-and-set protocols of package algos/tas — and the
// harnesses check it against that type's sequential spec (package objtype)
// with the same linearizability machinery the constructions use.
//
// The registry mirrors universal.New/Names so CLIs (cmd/explore,
// cmd/wakeupsim), fuzz targets, the exploration harness and the job/
// campaign validators enumerate the zoo instead of hard-coding names.
package algos

import (
	"fmt"
	"strings"

	"jayanti98/internal/algos/tas"
	"jayanti98/internal/machine"
	"jayanti98/internal/objtype"
)

// Spec describes one registered algorithm: how to build it, the sequential
// type it implements, and the exploration parameters that differ from the
// wait-free universal constructions.
type Spec struct {
	// Name is the registry key (the -alg spelling).
	Name string
	// Object is the explore workload the algorithm implements ("tas"):
	// exploration runs it only under this workload name.
	Object string
	// Op is the one operation a process's whole run represents.
	Op objtype.Op
	// Type builds the sequential spec instance for n processes.
	Type func(n int) objtype.Type
	// New builds the algorithm: a machine.NewCompiled pair, so explore
	// runs its chunk on the VM and can fork it.
	New func(n int) machine.Algorithm
	// MaxN bounds the process count (0: unbounded). The Tromp–Vitányi
	// protocol is inherently two-process.
	MaxN int
	// Budget is the default exploration step budget at n. The randomized
	// algorithms are not wait-free — a symmetric schedule with symmetric
	// tosses livelocks — so exhausting the budget truncates a run instead
	// of failing it, and the budget directly bounds exhaustive search
	// depth. Values are sized so TestExhaustiveGolden stays fast while
	// still containing complete runs.
	Budget func(n int) int
}

// specs lists the zoo in presentation order. The mutation build adds the
// deliberately broken TV variant (mutant.go in algos/tas).
var specs = buildSpecs()

func buildSpecs() []Spec {
	tasType := func(n int) objtype.Type { return objtype.NewTAS() }
	tasOp := objtype.Op{Name: objtype.OpTestAndSet}
	out := []Spec{
		{
			Name:   "tas-tv",
			Object: "tas",
			Op:     tasOp,
			Type:   tasType,
			New:    func(int) machine.Algorithm { return tas.TrompVitanyi() },
			MaxN:   2,
			Budget: func(n int) int { return 14 },
		},
		{
			Name:   "tas-tournament",
			Object: "tas",
			Op:     tasOp,
			Type:   tasType,
			New:    func(int) machine.Algorithm { return tas.Tournament() },
			Budget: func(n int) int { return 8*n + 4 },
		},
	}
	if tas.MutantAvailable {
		out = append(out, Spec{
			Name:   BrokenTV,
			Object: "tas",
			Op:     tasOp,
			Type:   tasType,
			New:    func(int) machine.Algorithm { return tas.BrokenTV() },
			MaxN:   2,
			Budget: func(n int) int { return 14 },
		})
	}
	return out
}

// BrokenTV names the deliberately broken TV variant (tas.BrokenTV, behind
// the "mutation" build tag) that mislabels the winner; the harness's own
// tests use it to prove the TAS checking actually detects bugs.
const BrokenTV = "tas-tv-broken"

// Names lists the registered algorithms in presentation order — the
// accepted names for New and For.
func Names() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// For returns the named spec, if registered.
func For(name string) (Spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// New builds the named algorithm for n processes, enforcing the spec's
// process-count bound.
func New(name string, n int) (machine.Algorithm, error) {
	s, ok := For(name)
	if !ok {
		return nil, fmt.Errorf("algos: unknown algorithm %q (want %s)", name, strings.Join(Names(), ", "))
	}
	if n < 1 {
		return nil, fmt.Errorf("algos: %s needs n >= 1, got %d", name, n)
	}
	if s.MaxN > 0 && n > s.MaxN {
		return nil, fmt.Errorf("algos: %s supports at most n = %d processes, got %d", name, s.MaxN, n)
	}
	return s.New(n), nil
}
