package jobs

import (
	"context"
	"encoding/json"
	"fmt"

	"jayanti98/internal/campaign"
)

// roundExecutor adapts the scheduler into a campaign.Executor: each round
// becomes one KindCampaignRound job, which gets the whole job pipeline for
// free — singleflight dedup, the content-addressed result cache (a
// re-executed round is served byte-identically without re-running
// anything), and, when the scheduler has a dist runner, fan-out over the
// lbworker fleet via the shard-lease protocol.
type roundExecutor struct {
	s *Scheduler
}

// NewRoundExecutor builds the scheduler-backed campaign executor.
func NewRoundExecutor(s *Scheduler) campaign.Executor {
	return &roundExecutor{s: s}
}

// ExecuteRound implements campaign.Executor: submit, wait, decode. A ctx
// cancellation cancels the underlying job (a round abandoned by its
// campaign must not keep burning the worker pool) and surfaces ctx's
// error, which the campaign manager reads as "stopped", not "failed". A
// ctx already done submits nothing: Wait would otherwise pick at random
// between it and a round that finished first.
func (re *roundExecutor) ExecuteRound(ctx context.Context, rs *campaign.RoundSpec) (*campaign.RoundResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	spec := &Spec{Kind: KindCampaignRound, CampaignRound: rs}
	view, _, err := re.s.Submit(spec)
	if err != nil {
		return nil, fmt.Errorf("jobs: campaign round submit: %w", err)
	}
	final, err := re.s.Wait(ctx, view.ID)
	if err != nil {
		re.s.Cancel(view.ID)
		return nil, err
	}
	switch final.Status {
	case StatusDone:
		var rr campaign.RoundResult
		if err := json.Unmarshal(final.Result, &rr); err != nil {
			return nil, fmt.Errorf("jobs: campaign round result: %w", err)
		}
		return &rr, nil
	case StatusCanceled:
		// The job unwound under a cancelled context (scheduler shutdown,
		// deadline). Report it as a cancellation so the campaign loop
		// stops instead of marking the campaign failed.
		return nil, fmt.Errorf("jobs: campaign round job: %w", context.Canceled)
	default:
		return nil, fmt.Errorf("jobs: campaign round job failed: %s", final.Error)
	}
}
