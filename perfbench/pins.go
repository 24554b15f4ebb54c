package main

// The exact references every op is checked against. They are the paper's
// numbers and the repository's own pinned goldens; a benchmark op whose
// output differs from them fails and counts toward error_rate. Tests
// break a pin on purpose to show that the check bites.

// paperRefs pins the Theorem 6.1 measurements the adversary workload
// makes.
type paperRefs struct {
	// E1: set-register under the adversary at n = 256 forces a winner to
	// take 512 shared-access steps, against a bound of ⌈log₄ 256⌉ = 4.
	e1N, e1WinnerSteps, e1Bound int
	// E7: group-update fetch&increment at n = 256 forces 67 steps on some
	// operation.
	e7N, e7ForcedSteps int
	// E2: double-register's expected winner cost, sampled over toss
	// assignments; every sample must pass every check.
	e2N, e2Samples int
	// E5: Lemma 5.2 indistinguishability for set-register at n = 32,
	// checked for all 32 processes.
	e5N int
}

var paperPins = paperRefs{
	e1N: 256, e1WinnerSteps: 512, e1Bound: 4,
	e7N: 256, e7ForcedSteps: 67,
	e2N: 32, e2Samples: 12,
	e5N: 32,
}

// exhaustiveRef is one TestExhaustiveGolden pin: the exact Report
// counters of an exhaustive search.
type exhaustiveRef struct {
	alg, object, llsc                 string
	n                                 int
	states, runs, complete, truncated int
}

// goldenPins are the exhaustive searches the explore workload runs, with
// the counts internal/explore's TestExhaustiveGolden pins. The
// tas-tournament pin is checked on both LL/SC backends, which must agree.
var goldenPins = []exhaustiveRef{
	{alg: "central", object: "fetch-increment", n: 2, states: 20, runs: 27, complete: 6},
	{alg: "central", object: "fetch-increment", n: 3, states: 507, runs: 700, complete: 126},
	{alg: "group-update", object: "fetch-increment", n: 2, states: 384, runs: 607, complete: 48},
	{alg: "herlihy", object: "fetch-increment", n: 2, states: 312, runs: 499, complete: 48},
	{alg: "tas-tv", object: "tas", n: 2, states: 532, runs: 957, complete: 50, truncated: 218},
	{alg: "tas-tournament", object: "tas", llsc: "native", n: 2, states: 1594, runs: 2741, complete: 140, truncated: 536},
	{alg: "tas-tournament", object: "tas", llsc: "bw", n: 2, states: 1594, runs: 2741, complete: 140, truncated: 536},
}
