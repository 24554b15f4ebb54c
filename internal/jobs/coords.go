package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"jayanti98/internal/campaign"
	"jayanti98/internal/explore"
	"jayanti98/internal/lowerbound"
	"jayanti98/internal/obs"
	"jayanti98/internal/universal"
)

// A shardable job is a map over independent coordinates: (construction,
// n) grid points for a sweep, sample indices for an explore fuzz job,
// input slots for a campaign round. Each coordinate derives everything it
// needs, its seed included, from its own index, so the output of a
// coordinate range [lo, hi) — a part — depends on the spec and the range
// alone, and concatenating the parts of any tiling of [0, n) in range
// order gives the same payload. Each kind states that map once, as a
// coordMap: a local run is the one-part run [0, n), and a dist shard runs
// one range on a worker (RunPart) whose parts the coordinator assembles
// (MergeParts).

// part is one coordinate range's output and the wire form a worker
// uploads. size is its number of per-coordinate results, or -1 when it
// keeps none per coordinate (a fuzz part keeps only its failures).
type part interface{ size() int }

// coordMap is how one shardable kind counts its coordinates, runs a range
// of them, and assembles the parts of a tiling, in range order, into its
// payload.
type coordMap struct {
	coords   func(*Spec) int
	newPart  func() part
	run      func(ctx context.Context, spec *Spec, lo, hi int, p *Progress, parallel int) (part, error)
	assemble func(spec *Spec, parts []part) (any, error)
}

var (
	sweepMap = &coordMap{
		coords:   func(s *Spec) int { return len(s.Sweep.ConstructionNames()) * len(s.Sweep.Ns()) },
		newPart:  func() part { return new(sweepPart) },
		run:      runSweepRange,
		assemble: assembleSweep,
	}
	fuzzMap = &coordMap{
		coords:   func(s *Spec) int { return s.Explore.Samples },
		newPart:  func() part { return new(fuzzPart) },
		run:      runFuzzRange,
		assemble: assembleFuzz,
	}
	roundMap = &coordMap{
		coords:   func(s *Spec) int { return s.CampaignRound.Inputs() },
		newPart:  func() part { return new(roundPart) },
		run:      runRoundRange,
		assemble: assembleRound,
	}
)

// coordMap returns the coordinate map of the spec's kind. Report jobs
// (whole experiments with interleaved rendering) and exhaustive
// exploration (one shared DFS frontier) have none.
func (s *Spec) coordMap() *coordMap {
	switch {
	case s == nil:
	case s.Kind == KindSweep && s.Sweep != nil:
		return sweepMap
	case s.Kind == KindExplore && s.Explore != nil && s.Explore.Mode == "fuzz":
		return fuzzMap
	case s.Kind == KindCampaignRound && s.CampaignRound != nil:
		return roundMap
	}
	return nil
}

// Coords returns the number of independent coordinates of a normalized
// spec, and whether the spec is shardable at all.
func (s *Spec) Coords() (int, bool) {
	m := s.coordMap()
	if m == nil {
		return 0, false
	}
	return m.coords(s), true
}

var errNotShardable = errors.New("jobs: spec is not shardable")

// RunPart runs coordinates [lo, hi) of a shardable spec and returns the
// part's wire bytes: a dist worker's whole job. parallel bounds the
// goroutines inside the range and, like every execution knob, cannot
// change a byte.
func RunPart(ctx context.Context, spec *Spec, lo, hi, parallel int) ([]byte, error) {
	m := spec.coordMap()
	if m == nil {
		return nil, errNotShardable
	}
	if n := m.coords(spec); lo < 0 || hi > n || lo >= hi {
		return nil, fmt.Errorf("jobs: range [%d, %d) outside the %d-coordinate grid", lo, hi, n)
	}
	pt, err := m.run(ctx, spec, lo, hi, nil, parallel)
	if err != nil {
		return nil, err
	}
	return json.Marshal(pt)
}

// MergeParts assembles the parts of a fully run shardable spec into its
// result bytes. Part i is the bytes RunPart returned for the i-th range of
// a tiling of [0, n) and covers lens[i] coordinates. The parts come from
// workers, so each is decoded and its result count checked against its
// range before assembly; the bytes equal Execute's for the same spec.
func MergeParts(spec *Spec, lens []int, raw [][]byte) ([]byte, error) {
	m := spec.coordMap()
	if m == nil {
		return nil, errNotShardable
	}
	if len(lens) != len(raw) {
		return nil, fmt.Errorf("jobs: %d ranges but %d parts", len(lens), len(raw))
	}
	parts := make([]part, len(raw))
	for i, b := range raw {
		parts[i] = m.newPart()
		if err := json.Unmarshal(b, parts[i]); err != nil {
			return nil, fmt.Errorf("jobs: part %d: %w", i, err)
		}
		if n := parts[i].size(); n >= 0 && n != lens[i] {
			return nil, fmt.Errorf("jobs: part %d has %d results, want %d", i, n, lens[i])
		}
	}
	payload, err := m.assemble(spec, parts)
	if err != nil {
		return nil, err
	}
	return json.Marshal(payload)
}

// sweepPart holds the measurements of a range of sweep grid points, in
// coordinate order.
type sweepPart struct {
	Results []lowerbound.ConstructionResult `json:"results"`
}

func (pt *sweepPart) size() int { return len(pt.Results) }

// runSweepRange measures grid points [lo, hi). Coordinate c is
// construction c/len(ns) at process count ns[c%len(ns)]
// (construction-major), and each construction's share of the range is
// one progress phase under its own span.
func runSweepRange(ctx context.Context, s *Spec, lo, hi int, p *Progress, parallel int) (part, error) {
	spec := s.Sweep
	st, err := lowerbound.SweepTypeFor(spec.Type)
	if err != nil {
		return nil, err
	}
	ns := spec.Ns()
	names := spec.ConstructionNames()
	pt := &sweepPart{Results: make([]lowerbound.ConstructionResult, 0, hi-lo)}
	for c := lo; c < hi; {
		i, j := c/len(ns), c%len(ns)
		end := min(hi, (i+1)*len(ns))
		name := names[i]
		p.Set(name, i, len(names))
		sctx, span := obs.StartSpan(ctx, "sweep "+name)
		span.SetAttr("construction", name)
		span.SetAttr("type", spec.Type)
		mk := func(n int) universal.Construction {
			return universal.Must(universal.New(name, st.New(n), n, 0))
		}
		results, _, err := lowerbound.SweepConstructionCtx(sctx, mk, st.Op, ns[j:j+end-c], parallel)
		span.End()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		pt.Results = append(pt.Results, results...)
		p.Set(name, i+1, len(names))
		c = end
	}
	return pt, nil
}

// assembleSweep groups the grid's measurements by construction, with the
// growth fit and table of each.
func assembleSweep(s *Spec, parts []part) (any, error) {
	spec := s.Sweep
	ns := spec.Ns()
	names := spec.ConstructionNames()
	var flat []lowerbound.ConstructionResult
	for _, pt := range parts {
		flat = append(flat, pt.(*sweepPart).Results...)
	}
	if want := len(names) * len(ns); len(flat) != want {
		return nil, fmt.Errorf("jobs: sweep has %d results, want %d (%d constructions × %d ns)",
			len(flat), want, len(names), len(ns))
	}
	res := &SweepResult{Type: spec.Type, Ns: ns}
	for i, name := range names {
		results := flat[i*len(ns) : (i+1)*len(ns)]
		for _, r := range results {
			if r.Construction != name {
				return nil, fmt.Errorf("jobs: sweep result %q at coordinates of %q", r.Construction, name)
			}
		}
		res.Constructions = append(res.Constructions, ConstructionSweep{
			Construction: name,
			Growth:       string(lowerbound.ConstructionGrowth(ns, results)),
			Results:      results,
			Table:        lowerbound.ConstructionTable(results),
		})
	}
	return res, nil
}

// fuzzPart holds a range of fuzz samples' summed step count and the
// failures they found, in sample order.
type fuzzPart struct {
	TotalSteps int              `json:"totalSteps"`
	Failures   []ExploreFailure `json:"failures"`
}

func (*fuzzPart) size() int { return -1 }

// runFuzzRange runs samples [lo, hi). The FuzzOptions offset keeps the
// global sample indices, and so the sweep.Derive seeds, those of the
// whole campaign.
func runFuzzRange(ctx context.Context, s *Spec, lo, hi int, p *Progress, parallel int) (part, error) {
	spec := s.Explore
	ctx, span := obs.StartSpan(ctx, "explore fuzz")
	defer span.End()
	span.SetAttr("alg", spec.Alg)
	span.SetAttr("mode", spec.Mode)
	p.Set("fuzz", 0, 1)
	rep, err := explore.FuzzCtx(ctx, spec.Config(), explore.FuzzOptions{
		Samples: hi - lo,
		Offset:  lo,
		Seed:    spec.Seed,
		Workers: parallel,
	})
	if err != nil {
		return nil, err
	}
	// A failure's replay events are dropped: its schedule and seed
	// reproduce it.
	pt := &fuzzPart{TotalSteps: rep.TotalSteps, Failures: make([]ExploreFailure, 0, len(rep.Failures))}
	for _, f := range rep.Failures {
		pt.Failures = append(pt.Failures, ExploreFailure{
			Kind:        string(f.Kind),
			Detail:      f.Detail,
			Schedule:    f.Schedule,
			OriginalLen: f.OriginalLen,
			Seed:        f.Seed,
		})
	}
	p.Set("fuzz", 1, 1)
	return pt, nil
}

func assembleFuzz(s *Spec, parts []part) (any, error) {
	res := &ExploreResult{
		Mode:     s.Explore.Mode,
		Budget:   s.Explore.Budget,
		Samples:  s.Explore.Samples,
		Failures: []ExploreFailure{},
	}
	for _, pt := range parts {
		res.TotalSteps += pt.(*fuzzPart).TotalSteps
		res.Failures = append(res.Failures, pt.(*fuzzPart).Failures...)
	}
	return res, nil
}

// roundPart holds the input results of a range of a campaign round's
// slots, in slot order.
type roundPart struct {
	Results []campaign.InputResult `json:"results"`
}

func (pt *roundPart) size() int { return len(pt.Results) }

// runRoundRange runs input slots [lo, hi) of a campaign round. Every slot
// mutates from the corpus frozen in the round spec, so a leased range
// needs nothing but the spec (campaign.ExecuteRoundSlice).
func runRoundRange(ctx context.Context, s *Spec, lo, hi int, p *Progress, parallel int) (part, error) {
	rs := s.CampaignRound
	ctx, span := obs.StartSpan(ctx, "campaign round batch")
	defer span.End()
	span.SetAttr("alg", rs.Campaign.Alg)
	span.SetAttr("round", fmt.Sprintf("%d", rs.Round))
	p.Set("campaign-round", 0, 1)
	results, err := campaign.ExecuteRoundSlice(ctx, rs, lo, hi, parallel)
	if err != nil {
		return nil, err
	}
	p.Set("campaign-round", 1, 1)
	return &roundPart{Results: results}, nil
}

func assembleRound(s *Spec, parts []part) (any, error) {
	var results []campaign.InputResult
	for _, pt := range parts {
		results = append(results, pt.(*roundPart).Results...)
	}
	return &campaign.RoundResult{Round: s.CampaignRound.Round, Results: results}, nil
}
