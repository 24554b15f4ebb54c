package explore

import (
	"fmt"
	"reflect"
	"testing"

	"jayanti98/internal/sweep"
)

// runGuided walks once on a new walker: the fresh runner that restarted
// walkers are held to.
func runGuided(cfg Config, prefix []int, seed, tossRange int64) (*CoverRecord, error) {
	return NewWalker(cfg, tossRange).RunGuided(prefix, seed)
}

// walkInput is one walk: a schedule prefix and a seed.
type walkInput struct {
	prefix []int
	seed   int64
}

// walkRecord walks in on w and returns everything the walk recorded:
// schedule, tosses, events, failure, steps and, with digests, the trace.
func walkRecord(t *testing.T, w *Walker, in walkInput) *CoverRecord {
	t.Helper()
	r, err := w.walk(in.prefix, in.seed)
	if err != nil {
		t.Fatal(err)
	}
	return &CoverRecord{RunRecord: r.record(), Trace: w.trace}
}

// checkRestartLeaksNothing walks inputs on one walker, in order and then in
// reverse order on another, and checks that every walk records exactly
// what it records on a walker of its own.
func checkRestartLeaksNothing(t *testing.T, cfg Config, tossRange int64, digests bool, inputs []walkInput) {
	t.Helper()
	want := make([]*CoverRecord, len(inputs))
	for i, in := range inputs {
		want[i] = walkRecord(t, newWalker(cfg, tossRange, digests), in)
	}
	for _, reverse := range []bool{false, true} {
		w := newWalker(cfg, tossRange, digests)
		for k := range inputs {
			i := k
			if reverse {
				i = len(inputs) - 1 - k
			}
			if got := walkRecord(t, w, inputs[i]); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("digests=%t reverse=%t: walk %d (seed %d) on a restarted walker differs from a fresh one:\n got %+v %+v\nwant %+v %+v",
					digests, reverse, i, inputs[i].seed, got.RunRecord, got.Failure, want[i].RunRecord, want[i].Failure)
			}
		}
	}
}

// TestWalkerRestartLeaksNothing: no state of one walk reaches the next. The
// samples of every golden fuzz campaign, with and without digests, and
// campaign-style walks that replay mutated prefixes, record the same on
// one restarted walker as on fresh runners, whichever order they run in.
func TestWalkerRestartLeaksNothing(t *testing.T) {
	for _, tc := range fuzzGoldens {
		tc := tc
		t.Run(fuzzGoldenName(tc.cfg, tc.opt), func(t *testing.T) {
			t.Parallel()
			var inputs []walkInput
			for i := tc.opt.Offset; i < tc.opt.Offset+tc.opt.Samples; i++ {
				inputs = append(inputs, walkInput{seed: sweep.Derive(tc.opt.Seed, i)})
			}
			for _, digests := range []bool{false, true} {
				checkRestartLeaksNothing(t, tc.cfg, tc.opt.TossRange, digests, inputs)
			}
		})
	}
	for _, cfg := range []Config{
		{Alg: "group-update", Object: "fetch-increment", N: 3, OpsPerProc: 1},
		{Alg: "tas-tournament", Object: "tas", N: 3, OpsPerProc: 1},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("campaign/%s/n=%d", cfg.Alg, cfg.N), func(t *testing.T) {
			t.Parallel()
			parent, err := runGuided(cfg, nil, 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			inputs := make([]walkInput, 16)
			for i := range inputs {
				seed := sweep.Derive(11, i)
				inputs[i].seed = seed
				if i%4 != 0 {
					inputs[i].prefix = MutateSchedule(sweep.NewRand(sweep.Derive(seed, 2)), parent.Schedule, cfg.N)
				}
			}
			checkRestartLeaksNothing(t, cfg, 2, true, inputs)
		})
	}
}
