package jobs

import (
	"context"
	"encoding/json"
	"fmt"

	"jayanti98/internal/campaign"
	"jayanti98/internal/experiments"
	"jayanti98/internal/explore"
	"jayanti98/internal/lowerbound"
	"jayanti98/internal/obs"
	"jayanti98/internal/report"
	"jayanti98/internal/universal"
)

// ExperimentResult is one report section: the markdown cmd/lbreport
// renders plus its tables in structured form (report.Table JSON).
type ExperimentResult struct {
	Name     string          `json:"name"`
	Markdown string          `json:"markdown"`
	Tables   []*report.Table `json:"tables"`
}

// ReportResult is the payload of a KindReport job.
type ReportResult struct {
	Quick       bool               `json:"quick"`
	Experiments []ExperimentResult `json:"experiments"`
}

// ConstructionSweep is one construction's slice of a KindSweep job.
type ConstructionSweep struct {
	Construction string                          `json:"construction"`
	Growth       string                          `json:"growth"`
	Results      []lowerbound.ConstructionResult `json:"results"`
	// Table is the same rendering cmd/unisweep prints.
	Table *report.Table `json:"table"`
}

// SweepResult is the payload of a KindSweep job.
type SweepResult struct {
	Type          string              `json:"type"`
	Ns            []int               `json:"ns"`
	Constructions []ConstructionSweep `json:"constructions"`
}

// ExploreFailure is a schedule-search counterexample in wire form.
type ExploreFailure struct {
	Kind        string `json:"kind"`
	Detail      string `json:"detail"`
	Schedule    []int  `json:"schedule"`
	OriginalLen int    `json:"originalLen,omitempty"`
	Seed        int64  `json:"seed,omitempty"`
}

// ExploreResult is the payload of a KindExplore job.
type ExploreResult struct {
	Mode   string `json:"mode"`
	Budget int    `json:"budget"`
	// Exhaustive counters (zero for fuzz).
	States   int `json:"states,omitempty"`
	Runs     int `json:"runs,omitempty"`
	Complete int `json:"complete,omitempty"`
	// Fuzz counters (zero for exhaustive).
	Samples    int `json:"samples,omitempty"`
	TotalSteps int `json:"totalSteps,omitempty"`

	Failures []ExploreFailure `json:"failures"`
}

// Execute normalizes and validates spec, then runs it in-process and
// returns its result bytes — the same bytes the scheduler would compute
// and cache for the spec. It is the reference implementation the
// distributed path (internal/dist) must be byte-identical to: the
// shard-merge property tests compare against it.
func Execute(ctx context.Context, spec *Spec, p *Progress, parallel int) ([]byte, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return runSpec(ctx, spec, p, parallel)
}

// runSpec executes a normalized, validated spec and returns its result as
// canonical JSON bytes. The bytes are a pure function of the spec — the
// caching contract — so nothing time-, host-, or parallelism-dependent
// may enter the payload. parallel is the sweep worker count to run
// beneath this job (≤ 0: one per CPU).
func runSpec(ctx context.Context, spec *Spec, p *Progress, parallel int) ([]byte, error) {
	var payload any
	var err error
	switch spec.Kind {
	case KindReport:
		payload, err = runReport(ctx, spec.Report, p, parallel)
	case KindSweep:
		payload, err = runSweep(ctx, spec.Sweep, p, parallel)
	case KindExplore:
		payload, err = runExplore(ctx, spec.Explore, p, parallel)
	case KindCampaignRound:
		payload, err = runCampaignRound(ctx, spec.CampaignRound, p, parallel)
	default:
		err = fmt.Errorf("jobs: unknown kind %q", spec.Kind)
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(payload)
}

func runReport(ctx context.Context, spec *ReportSpec, p *Progress, parallel int) (*ReportResult, error) {
	selected, err := experiments.For(spec.Experiments)
	if err != nil {
		return nil, err
	}
	res := &ReportResult{Quick: spec.Quick, Experiments: make([]ExperimentResult, 0, len(selected))}
	opts := experiments.Options{Quick: spec.Quick, Parallel: parallel}
	for i, e := range selected {
		p.Set(e.Name, i, len(selected))
		var d report.Doc
		if err := e.Run(ctx, &d, opts); err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		res.Experiments = append(res.Experiments, ExperimentResult{
			Name:     e.Name,
			Markdown: d.Markdown(),
			Tables:   d.Tables(),
		})
		p.Set(e.Name, i+1, len(selected))
	}
	return res, nil
}

func runSweep(ctx context.Context, spec *SweepSpec, p *Progress, parallel int) (*SweepResult, error) {
	st, err := lowerbound.SweepTypeFor(spec.Type)
	if err != nil {
		return nil, err
	}
	ns := spec.Ns()
	constructions := spec.ConstructionNames()
	flat := make([]lowerbound.ConstructionResult, 0, len(constructions)*len(ns))
	for i, name := range constructions {
		name := name
		p.Set(name, i, len(constructions))
		sctx, span := obs.StartSpan(ctx, "sweep "+name)
		span.SetAttr("construction", name)
		span.SetAttr("type", spec.Type)
		mk := func(n int) universal.Construction {
			return universal.Must(universal.New(name, st.New(n), n, 0))
		}
		results, _, err := lowerbound.SweepConstructionCtx(sctx, mk, st.Op, ns, parallel)
		span.End()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		flat = append(flat, results...)
		p.Set(name, i+1, len(constructions))
	}
	return BuildSweepResult(spec, flat)
}

// BuildSweepResult assembles the KindSweep payload from the flat,
// coordinate-ordered measurement slice (construction-major, n-minor —
// the order runSweep produces and internal/dist's index-ordered shard
// merge reconstructs). Each measurement is a pure function of its
// (construction, n) coordinate, so any partition of the grid feeds this
// function identical inputs and the payload is byte-identical no matter
// where the shard boundaries fell.
func BuildSweepResult(spec *SweepSpec, flat []lowerbound.ConstructionResult) (*SweepResult, error) {
	ns := spec.Ns()
	constructions := spec.ConstructionNames()
	if want := len(constructions) * len(ns); len(flat) != want {
		return nil, fmt.Errorf("jobs: sweep has %d results, want %d (%d constructions × %d ns)",
			len(flat), want, len(constructions), len(ns))
	}
	res := &SweepResult{Type: spec.Type, Ns: ns}
	for i, name := range constructions {
		results := flat[i*len(ns) : (i+1)*len(ns)]
		tbl := report.NewTable("n", "forced steps/op", "documented bound", "Ω ⌈log₄ n⌉")
		for _, r := range results {
			if r.Construction != name {
				return nil, fmt.Errorf("jobs: sweep result %q at coordinates of %q", r.Construction, name)
			}
			bound := "not wait-free"
			if r.StepBound > 0 {
				bound = fmt.Sprintf("%d", r.StepBound)
			}
			tbl.AddRow(r.N, r.MaxSteps, bound, r.LowerBound)
		}
		res.Constructions = append(res.Constructions, ConstructionSweep{
			Construction: name,
			Growth:       string(lowerbound.ConstructionGrowth(ns, results)),
			Results:      results,
			Table:        tbl,
		})
	}
	return res, nil
}

func runExplore(ctx context.Context, spec *ExploreSpec, p *Progress, parallel int) (*ExploreResult, error) {
	cfg := explore.Config{
		Alg:        spec.Alg,
		Object:     spec.Object,
		N:          spec.N,
		OpsPerProc: spec.OpsPerProc,
		Budget:     spec.Budget,
		LLSC:       spec.LLSC,
	}
	res := &ExploreResult{Mode: spec.Mode, Failures: []ExploreFailure{}}
	ctx, span := obs.StartSpan(ctx, "explore "+spec.Mode)
	defer span.End()
	span.SetAttr("alg", spec.Alg)
	span.SetAttr("mode", spec.Mode)
	switch spec.Mode {
	case "exhaustive":
		p.Set("exhaustive", 0, 1)
		rep, err := explore.ExhaustiveCtx(ctx, cfg, parallel)
		if err != nil {
			return nil, err
		}
		res.Budget = rep.Cfg.Budget
		res.States = rep.States
		res.Runs = rep.Runs
		res.Complete = rep.Complete
		if rep.Failure != nil {
			res.Failures = append(res.Failures, ExploreFailure{
				Kind:     string(rep.Failure.Kind),
				Detail:   rep.Failure.Detail,
				Schedule: rep.Record.Schedule,
			})
		}
		p.Set("exhaustive", 1, 1)
	case "fuzz":
		p.Set("fuzz", 0, 1)
		rep, err := explore.FuzzCtx(ctx, cfg, explore.FuzzOptions{
			Samples: spec.Samples,
			Seed:    spec.Seed,
			Workers: parallel,
		})
		if err != nil {
			return nil, err
		}
		failures := make([]ExploreFailure, 0, len(rep.Failures))
		for _, f := range rep.Failures {
			failures = append(failures, NewExploreFailure(f))
		}
		res = BuildFuzzResult(spec, rep.TotalSteps, failures)
		p.Set("fuzz", 1, 1)
	default:
		return nil, fmt.Errorf("jobs: explore mode %q", spec.Mode)
	}
	return res, nil
}

// runCampaignRound executes one coverage-guided campaign round in-process
// — the local reference implementation the distributed shard path
// (internal/dist) must be byte-identical to.
func runCampaignRound(ctx context.Context, rs *campaign.RoundSpec, p *Progress, parallel int) (*campaign.RoundResult, error) {
	ctx, span := obs.StartSpan(ctx, "campaign round batch")
	defer span.End()
	span.SetAttr("alg", rs.Campaign.Alg)
	span.SetAttr("round", fmt.Sprintf("%d", rs.Round))
	p.Set("campaign-round", 0, 1)
	rr, err := campaign.ExecuteRound(ctx, rs, parallel)
	if err != nil {
		return nil, err
	}
	p.Set("campaign-round", 1, 1)
	return rr, nil
}

// NewExploreFailure converts a schedule-search counterexample to its wire
// form (the replay's events are dropped; the schedule plus seed suffice to
// reproduce it).
func NewExploreFailure(f *explore.Replay) ExploreFailure {
	return ExploreFailure{
		Kind:        string(f.Kind),
		Detail:      f.Detail,
		Schedule:    f.Schedule,
		OriginalLen: f.OriginalLen,
		Seed:        f.Seed,
	}
}

// BuildFuzzResult assembles the KindExplore payload of a fuzz campaign
// from its sample-ordered failures and summed step count. Sample i always
// derives its private seed with sweep.Derive(Seed, i) regardless of which
// process ran it, so concatenating per-shard failures in sample order
// (internal/dist) reproduces the serial payload byte-for-byte.
func BuildFuzzResult(spec *ExploreSpec, totalSteps int, failures []ExploreFailure) *ExploreResult {
	if failures == nil {
		failures = []ExploreFailure{}
	}
	return &ExploreResult{
		Mode:       spec.Mode,
		Budget:     spec.Budget,
		Samples:    spec.Samples,
		TotalSteps: totalSteps,
		Failures:   failures,
	}
}
