//go:build mutation

package lockstep

import (
	"fmt"
	"testing"

	"jayanti98/internal/machine"
)

// TestExhaustiveBrokenGroupUpdateEquivalence: the deliberately broken
// Group-Update's compiled twin is step-equivalent to its direct-style
// Invoke, so the mutant the explore and campaign tests hunt is the same
// automaton on both engines.
func TestExhaustiveBrokenGroupUpdateEquivalence(t *testing.T) {
	for _, object := range []string{"fetch-increment", "queue"} {
		for _, k := range []int{1, 2} {
			object, k := object, k
			t.Run(fmt.Sprintf("%s/k=%d", object, k), func(t *testing.T) {
				t.Parallel()
				stats, err := Exhaustive(workload(t, "group-update-broken", object, 2, k), 2, machine.ZeroTosses, 128)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("states=%d runs=%d maxDepth=%d", stats.States, stats.Runs, stats.MaxDepth)
			})
		}
	}
}
