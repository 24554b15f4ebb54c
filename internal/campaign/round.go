package campaign

import (
	"context"
	"fmt"

	"jayanti98/internal/explore"
	"jayanti98/internal/sweep"
)

// RoundSpec is one round of a campaign in wire form: the campaign spec,
// the round number, and the corpus schedules mutation draws parents from —
// frozen at round start, so every input of the round is a pure function of
// this struct and its slot index. It is the unit internal/dist shards: a
// worker leasing a slice of the round receives the whole corpus in the
// grant (that is how replicas share coverage) and executes its slots
// exactly as the local loop would.
type RoundSpec struct {
	Campaign Spec `json:"campaign"`
	// Round is the 0-based round number; it offsets the global input
	// stream by Round*BatchSize.
	Round int `json:"round"`
	// Corpus holds the interesting schedules known at round start, in
	// corpus insertion order.
	Corpus [][]int `json:"corpus,omitempty"`
}

// Inputs returns the round's input count — the shardable coordinate axis.
func (rs *RoundSpec) Inputs() int { return rs.Campaign.BatchSize }

// InputResult is the outcome of one input slot, in wire form. It carries
// everything the coordinator needs to merge coverage (Trace), evolve the
// corpus (Schedule), and reproduce a failure deterministically elsewhere
// (Schedule + Tosses re-run the exact machine history, per the replay
// contract).
type InputResult struct {
	// Schedule is the executed schedule (delivered pids only).
	Schedule []int `json:"schedule"`
	// Tosses holds the coin tosses each process consumed.
	Tosses [][]int64 `json:"tosses,omitempty"`
	// Trace is the run's state-digest trace, first-reached order.
	Trace []uint64 `json:"trace"`
	// Steps is the number of shared-memory steps executed.
	Steps int `json:"steps"`
	// Completed reports whether every process terminated.
	Completed bool `json:"completed,omitempty"`
	// FailKind/FailDetail describe a detected violation ("" = clean run).
	FailKind   string `json:"failKind,omitempty"`
	FailDetail string `json:"failDetail,omitempty"`
}

// RoundResult is a full round's outcome: one InputResult per slot, in slot
// order. Slot order is the merge order, so the struct is byte-identical no
// matter how the round was sharded.
type RoundResult struct {
	Round   int           `json:"round"`
	Results []InputResult `json:"results"`
}

// ExecuteRound runs every input of the round with at most `parallel`
// workers (sweep.Workers semantics).
func ExecuteRound(ctx context.Context, rs *RoundSpec, parallel int) (*RoundResult, error) {
	results, err := ExecuteRoundSlice(ctx, rs, 0, rs.Inputs(), parallel)
	if err != nil {
		return nil, err
	}
	return &RoundResult{Round: rs.Round, Results: results}, nil
}

// ExecuteRoundSlice runs input slots [lo, hi) of the round and returns
// their results in slot order. Each slot is independent — seeds derive
// from the global slot index, mutation parents come from the frozen
// round-start corpus — so any partition of [0, BatchSize) concatenated in
// slice order reproduces the unsliced round exactly (the dist merge
// property).
func ExecuteRoundSlice(ctx context.Context, rs *RoundSpec, lo, hi, parallel int) ([]InputResult, error) {
	spec := rs.Campaign
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if lo < 0 || hi > spec.BatchSize || lo >= hi {
		return nil, fmt.Errorf("campaign: slot range [%d, %d) outside the %d-input round", lo, hi, spec.BatchSize)
	}
	cfg := spec.ExploreConfig()
	return sweep.MapCtx(ctx, parallel, hi-lo, func(i int) (InputResult, error) {
		slot := lo + i
		global := rs.Round*spec.BatchSize + slot
		seed := sweep.Derive(spec.Seed, global)
		prefix := inputPrefix(rs, seed)
		rec, err := explore.RunGuided(cfg, prefix, seed, spec.TossRange)
		if err != nil {
			return InputResult{}, fmt.Errorf("campaign: round %d slot %d (seed %d): %w", rs.Round, slot, seed, err)
		}
		res := InputResult{
			Schedule:  rec.Schedule,
			Tosses:    rec.Tosses,
			Trace:     rec.Trace,
			Steps:     rec.Steps,
			Completed: rec.Completed,
		}
		if rec.Failure != nil {
			res.FailKind = string(rec.Failure.Kind)
			res.FailDetail = rec.Failure.Detail
		}
		return res, nil
	})
}

// inputPrefix decides the slot's schedule prefix: with a non-empty corpus,
// three in four inputs mutate a corpus parent and the rest stay fresh
// random walks (an exploit/explore split); with an empty corpus every
// input is fresh. The decision RNG derives from the slot seed at index 2 —
// index 1 is the toss stream inside RunGuided — so prefix choice, tosses,
// and the walk are three independent deterministic streams.
func inputPrefix(rs *RoundSpec, seed int64) []int {
	if len(rs.Corpus) == 0 {
		return nil
	}
	rng := sweep.NewRand(sweep.Derive(seed, 2))
	if rng.Intn(4) == 0 {
		return nil
	}
	parent := rs.Corpus[rng.Intn(len(rs.Corpus))]
	return explore.MutateSchedule(rng, parent, rs.Campaign.N)
}
