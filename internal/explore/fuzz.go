package explore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

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
	// schedules already shrunk.
	Failures []*Replay
	// Paths holds the file each failure was persisted to, aligned with
	// Failures (empty when OutDir was "").
	Paths []string
}

// Fuzz runs random schedules of cfg: at every step an enabled process is
// picked uniformly, and coin tosses are drawn uniformly from
// [0, TossRange). Every failing sample is minimized into a self-contained
// Replay (Minimize); with OutDir set, replays are also persisted as JSON
// files (see ReadReplay / Verify).
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
	// Samples share walkers, one per concurrently running sample: a
	// sample takes a free walker (or builds one) and hands it back when it
	// has taken its record, so each walker's runner and memo serve many
	// samples.
	walkers := make(chan *Walker, min(sweep.Workers(opt.Workers), opt.Samples))
	results, err := sweep.MapCtx(ctx, opt.Workers, opt.Samples, func(item int) (sampleResult, error) {
		i := opt.Offset + item // global sample index in the Seed's stream
		seed := sweep.Derive(opt.Seed, i)
		var w *Walker
		select {
		case w = <-walkers:
		default:
			w = newWalker(cfg, opt.TossRange, false)
		}
		r, err := w.walk(nil, seed)
		if err != nil {
			return sampleResult{}, fmt.Errorf("explore: sample %d (seed %d): %w", i, seed, err)
		}
		res := sampleResult{steps: r.steps}
		var rec *RunRecord
		if r.fail != nil {
			rec = r.record()
		}
		select {
		case walkers <- w:
		default:
		}
		if rec == nil {
			return res, nil
		}
		if res.replay, err = Minimize(ctx, cfg, rec.Schedule, rec.Tosses, rec.Failure.Kind, seed); err != nil {
			return sampleResult{}, fmt.Errorf("explore: sample %d (seed %d): %w", i, seed, err)
		}
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
