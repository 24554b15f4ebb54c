package jobs

import (
	"context"
	"encoding/json"
	"fmt"

	"jayanti98/internal/experiments"
	"jayanti98/internal/explore"
	"jayanti98/internal/lowerbound"
	"jayanti98/internal/obs"
	"jayanti98/internal/report"
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
// and cache for the spec.
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
	switch m := spec.coordMap(); {
	case m != nil:
		// A shardable spec runs as the one-part run [0, n) of its
		// coordinate map (coords.go).
		var pt part
		if pt, err = m.run(ctx, spec, 0, m.coords(spec), p, parallel); err == nil {
			payload, err = m.assemble(spec, []part{pt})
		}
	case spec.Kind == KindReport:
		payload, err = runReport(ctx, spec.Report, p, parallel)
	case spec.Kind == KindExplore:
		payload, err = runExhaustive(ctx, spec.Explore, p, parallel)
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

// runExhaustive searches every schedule of the spec (one shared DFS
// frontier, so not a map over independent coordinates).
func runExhaustive(ctx context.Context, spec *ExploreSpec, p *Progress, parallel int) (*ExploreResult, error) {
	if spec.Mode != "exhaustive" {
		return nil, fmt.Errorf("jobs: explore mode %q", spec.Mode)
	}
	ctx, span := obs.StartSpan(ctx, "explore exhaustive")
	defer span.End()
	span.SetAttr("alg", spec.Alg)
	span.SetAttr("mode", spec.Mode)
	p.Set("exhaustive", 0, 1)
	rep, err := explore.ExhaustiveCtx(ctx, spec.Config(), parallel)
	if err != nil {
		return nil, err
	}
	res := &ExploreResult{
		Mode:     spec.Mode,
		Budget:   rep.Cfg.Budget,
		States:   rep.States,
		Runs:     rep.Runs,
		Complete: rep.Complete,
		Failures: []ExploreFailure{},
	}
	if rep.Failure != nil {
		res.Failures = append(res.Failures, ExploreFailure{
			Kind:     string(rep.Failure.Kind),
			Detail:   rep.Failure.Detail,
			Schedule: rep.Record.Schedule,
		})
	}
	p.Set("exhaustive", 1, 1)
	return res, nil
}
