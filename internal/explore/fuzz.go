package explore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"jayanti98/internal/linz"
	"jayanti98/internal/sweep"
)

// FuzzOptions configures a fuzzing campaign.
type FuzzOptions struct {
	// Samples is the number of random schedules to run.
	Samples int
	// Seed is the campaign's base seed; sample i derives its private seed
	// with sweep.Derive(Seed, i), so each sample reproduces in isolation
	// at every worker count.
	Seed int64
	// Offset shifts the campaign's sample indices: the run covers samples
	// Offset … Offset+Samples-1 of the Seed's stream. A campaign split
	// into contiguous [offset, offset+count) slices therefore runs
	// exactly the samples — and derives exactly the seeds — of the
	// unsplit campaign, which is what lets internal/dist shard a fuzz job
	// across processes without perturbing a single coin toss.
	Offset int
	// Workers bounds the worker goroutines (sweep.Workers semantics).
	Workers int
	// OutDir, when non-empty, receives one JSON replay file per failing
	// sample (written after the campaign, in sample order).
	OutDir string
	// NoShrink skips counterexample minimization (useful when a failure's
	// raw schedule is itself of interest).
	NoShrink bool
	// TossRange is the exclusive upper bound on random coin-toss outcomes
	// (0 means 2: coin flips).
	TossRange int64
}

// FuzzReport summarizes a fuzzing campaign.
type FuzzReport struct {
	Cfg     Config
	Samples int
	// TotalSteps sums executed steps over all samples (a cheap determinism
	// fingerprint for the whole campaign).
	TotalSteps int
	// Failures holds one replay per failing sample, in sample order, with
	// schedules already shrunk unless NoShrink was set.
	Failures []*Replay
	// Paths holds the file each failure was persisted to, aligned with
	// Failures (empty when OutDir was "").
	Paths []string
}

// Fuzz runs random schedules of cfg: at every step an enabled process is
// picked uniformly, and coin tosses are drawn uniformly from
// [0, TossRange). Every failing sample is minimized with ShrinkCtx and
// converted into a self-contained Replay; with OutDir set, replays are
// also persisted as JSON files (see ReadReplay / Verify).
func Fuzz(cfg Config, opt FuzzOptions) (*FuzzReport, error) {
	return FuzzCtx(context.Background(), cfg, opt)
}

// FuzzCtx is Fuzz under a context: once ctx is done no further samples are
// dispatched and the campaign returns ctx.Err() (sweep.MapCtx semantics);
// no report — and in particular no replay file — is produced for a
// cancelled campaign.
func FuzzCtx(ctx context.Context, cfg Config, opt FuzzOptions) (*FuzzReport, error) {
	if opt.Samples < 1 {
		return nil, fmt.Errorf("explore: fuzz needs at least 1 sample, got %d", opt.Samples)
	}
	if opt.Offset < 0 {
		return nil, fmt.Errorf("explore: fuzz sample offset %d negative", opt.Offset)
	}
	if opt.OutDir != "" {
		if err := os.MkdirAll(opt.OutDir, 0o755); err != nil {
			return nil, fmt.Errorf("explore: fuzz: %w", err)
		}
	}
	type sampleResult struct {
		steps  int
		replay *Replay
	}
	// Samples share online-checker memos, one per concurrently running
	// sample: a sample takes a free memo (or starts one) and hands it back
	// when it is done.
	memos := make(chan *linz.Memo, min(sweep.Workers(opt.Workers), opt.Samples))
	results, err := sweep.MapCtx(ctx, opt.Workers, opt.Samples, func(item int) (sampleResult, error) {
		i := opt.Offset + item // global sample index in the Seed's stream
		seed := sweep.Derive(opt.Seed, i)
		var memo *linz.Memo
		select {
		case memo = <-memos:
		default:
		}
		r, err := walk(cfg, nil, seed, opt.TossRange, memo, nil)
		if err != nil {
			return sampleResult{}, fmt.Errorf("explore: sample %d (seed %d): %w", i, seed, err)
		}
		select {
		case memos <- r.memo:
		default:
		}
		res := sampleResult{steps: r.steps}
		if r.fail == nil {
			return res, nil
		}
		// Reproduce with the recorded tosses, minimizing the schedule
		// unless asked not to. The budget stays as configured so a
		// budget-exhaustion failure reproduces under the same bound.
		// Shrinking runs under the campaign context: a cancelled ctx cuts
		// minimization short but still yields a failing schedule.
		rec := r.record()
		rcfg := cfg
		rcfg.Tosses = ReplayTosses(rec.Tosses)
		schedule := rec.Schedule
		if !opt.NoShrink {
			schedule = ShrinkCtx(ctx, rcfg, rec.Schedule, rec.Failure.Kind)
		}
		final, err := RunSchedule(rcfg, schedule)
		if err != nil {
			return sampleResult{}, fmt.Errorf("explore: sample %d (seed %d): rerun: %w", i, seed, err)
		}
		if final.Failure == nil {
			return sampleResult{}, fmt.Errorf("explore: sample %d (seed %d): failure %v did not reproduce from its own schedule", i, seed, rec.Failure)
		}
		res.replay = NewReplay(cfg, final, seed, len(rec.Schedule))
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	rep := &FuzzReport{Cfg: cfg, Samples: opt.Samples}
	for i, sr := range results {
		rep.TotalSteps += sr.steps
		if sr.replay == nil {
			continue
		}
		rep.Failures = append(rep.Failures, sr.replay)
		path := ""
		if opt.OutDir != "" {
			path = filepath.Join(opt.OutDir, fmt.Sprintf("fail-%s-%s-n%d-sample%d.json", cfg.Alg, cfg.Object, cfg.N, opt.Offset+i))
			if err := WriteReplay(path, sr.replay); err != nil {
				return nil, err
			}
		}
		rep.Paths = append(rep.Paths, path)
	}
	return rep, nil
}
