package explore

import (
	"fmt"
	"testing"

	"jayanti98/internal/sweep"
)

// fuzzGoldens pins Fuzz campaigns: the step total and failure count of
// each, plus how many of its samples truncate (zoo algorithms only). The
// values were captured while Fuzz still had a random walk of its own, so
// they show that sharing RunGuided's walk changed no sample. The table
// covers a construction on every workload, a zoo algorithm whose
// budget truncates runs, both LL/SC backends, a budget small enough to
// make every sample fail (so shrinking and the replay build run), a
// non-zero sample offset, and the service benchmark's job shape
// (group-update, fetch-increment, n = 3).
var fuzzGoldens = []struct {
	cfg       Config
	opt       FuzzOptions
	steps     int
	failures  int
	truncated int
}{
	{cfg: Config{Alg: "group-update", Object: "fetch-increment", N: 3, OpsPerProc: 1},
		opt: FuzzOptions{Samples: 24, Seed: 11}, steps: 968},
	{cfg: Config{Alg: "central", Object: "tas", N: 3, OpsPerProc: 2},
		opt: FuzzOptions{Samples: 16, Seed: 3, Workers: 2}, steps: 302},
	{cfg: Config{Alg: "herlihy", Object: "queue", N: 2, OpsPerProc: 2, LLSC: "bw"},
		opt: FuzzOptions{Samples: 12, Seed: 5}, steps: 339},
	{cfg: Config{Alg: "group-update", Object: "queue", N: 2, OpsPerProc: 1, LLSC: "native"},
		opt: FuzzOptions{Samples: 12, Seed: 9, Offset: 40}, steps: 204},
	{cfg: Config{Alg: "central", Object: "fetch-increment", N: 2, OpsPerProc: 1, Budget: 3},
		opt: FuzzOptions{Samples: 4, Seed: 2}, steps: 12, failures: 4},
	{cfg: Config{Alg: "tas-tv", Object: "tas", N: 2, OpsPerProc: 1},
		opt: FuzzOptions{Samples: 24, Seed: 13}, steps: 186, truncated: 1},
	{cfg: Config{Alg: "tas-tournament", Object: "tas", N: 3, OpsPerProc: 1, Budget: 24, LLSC: "bw"},
		opt: FuzzOptions{Samples: 12, Seed: 17, TossRange: 3}, steps: 268, truncated: 7},
}

func fuzzGoldenName(cfg Config, opt FuzzOptions) string {
	return fmt.Sprintf("%s/%s/n=%d/ops=%d/budget=%d/llsc=%s/seed=%d", cfg.Alg, cfg.Object, cfg.N, cfg.OpsPerProc, cfg.Budget, cfg.LLSC, opt.Seed)
}

// TestFuzzGolden checks every pinned campaign's step total and failure
// count, and that each failure is a replay that reproduces bit for bit.
func TestFuzzGolden(t *testing.T) {
	for _, tc := range fuzzGoldens {
		tc := tc
		t.Run(fuzzGoldenName(tc.cfg, tc.opt), func(t *testing.T) {
			t.Parallel()
			rep, err := Fuzz(tc.cfg, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if rep.TotalSteps != tc.steps || len(rep.Failures) != tc.failures {
				t.Errorf("got steps=%d failures=%d, want steps=%d failures=%d", rep.TotalSteps, len(rep.Failures), tc.steps, tc.failures)
			}
			for _, rp := range rep.Failures {
				if _, diff, err := Verify(rp); err != nil || diff != "" {
					t.Errorf("failure of seed %d does not replay: err=%v diff=%s", rp.Seed, err, diff)
				}
			}
		})
	}
}

// TestFuzzIsRunGuided checks that Fuzz samples exactly the runs RunGuided
// walks with an empty prefix: for every golden campaign, the step total is
// the sum of RunGuided's steps over the campaign's sample seeds, and the
// failing samples are the ones RunGuided sees fail. Each sample runs on a
// new walker, so Fuzz's restarted runners are held to fresh ones.
func TestFuzzIsRunGuided(t *testing.T) {
	for _, tc := range fuzzGoldens {
		tc := tc
		t.Run(fuzzGoldenName(tc.cfg, tc.opt), func(t *testing.T) {
			t.Parallel()
			steps, failures, truncated := 0, 0, 0
			for i := tc.opt.Offset; i < tc.opt.Offset+tc.opt.Samples; i++ {
				rec, err := runGuided(tc.cfg, nil, sweep.Derive(tc.opt.Seed, i), tc.opt.TossRange)
				if err != nil {
					t.Fatal(err)
				}
				steps += rec.Steps
				if rec.Failure != nil {
					failures++
				}
				if rec.Truncated {
					truncated++
				}
			}
			if steps != tc.steps || failures != tc.failures || truncated != tc.truncated {
				t.Errorf("RunGuided over the samples: steps=%d failures=%d truncated=%d, want steps=%d failures=%d truncated=%d",
					steps, failures, truncated, tc.steps, tc.failures, tc.truncated)
			}
		})
	}
}
