package main

import (
	"context"
	"fmt"

	"jayanti98/internal/campaign"
	"jayanti98/internal/explore"
	"jayanti98/internal/sweep"
)

// The explore workload is the model-checking path: exhaustive searches
// held to the pinned golden counters, seeded fuzz batches that must find
// nothing on correct constructions, and campaign rounds. Its time goes to
// prefix re-execution, memo keys, online linearizability checking, the
// LL/SC backends and the goroutine engine; it never touches core or jobs.

// exploreFuzz is one seeded fuzz batch: it must report zero failures.
type exploreFuzz struct {
	name    string
	cfg     explore.Config
	samples int
}

var fuzzBatches = []exploreFuzz{
	{name: "group-update n=4 ops=2", cfg: explore.Config{Alg: "group-update", Object: "fetch-increment", N: 4, OpsPerProc: 2}, samples: 12},
	{name: "tas-tournament n=8 raw", cfg: explore.Config{Alg: "tas-tournament", Object: "tas", N: 8, OpsPerProc: 1}, samples: 1},
}

// exploreWeights is each exhaustive pin's weight in a cycle (same order
// as goldenPins), then each fuzz batch's, then the campaign round's.
var exploreWeights = []int{1, 4, 1, 1, 1, 1, 1, 1, 1, 1}

// campaignSpec is the workload's campaign: group-update at n = 2, its
// seed drawn from the workload seed.
func campaignSpec(seed int64) campaign.Spec {
	spec := campaign.Spec{Alg: "group-update", Object: "fetch-increment", N: 2, BatchSize: 32, MaxCorpus: 16,
		Seed: sweep.Derive(seed, 3)}
	spec.Normalize()
	return spec
}

// fuzzSeed is the seed of op i's fuzz batch.
func fuzzSeed(seed int64, i int) int64 { return sweep.Derive(sweep.Derive(seed, 1), i) }

func newExplore(seed int64, pins []exhaustiveRef) closedRun {
	var kinds []opKind
	w := 0
	for _, ref := range pins {
		ref := ref
		kinds = append(kinds, opKind{
			name:   fmt.Sprintf("explore.Exhaustive %s n=%d %s", ref.alg, ref.n, ref.llsc),
			weight: exploreWeights[w],
			run: func(tr *tracer, parent, i int) (opOut, error) {
				rep, err := explore.Exhaustive(explore.Config{Alg: ref.alg, Object: ref.object, N: ref.n, OpsPerProc: 1, LLSC: ref.llsc}, 1)
				if err != nil {
					return opOut{}, err
				}
				out := opOut{runs: int64(rep.Runs), states: int64(rep.States), truncated: int64(rep.Truncated)}
				if rep.Failure != nil {
					return out, fmt.Errorf("exhaustive %s n=%d: unexpected failure %v", ref.alg, ref.n, rep.Failure)
				}
				if rep.States != ref.states || rep.Runs != ref.runs || rep.Complete != ref.complete || rep.Truncated != ref.truncated {
					return out, fmt.Errorf("exhaustive %s n=%d %s: states=%d runs=%d complete=%d truncated=%d, want %d %d %d %d",
						ref.alg, ref.n, ref.llsc, rep.States, rep.Runs, rep.Complete, rep.Truncated,
						ref.states, ref.runs, ref.complete, ref.truncated)
				}
				return out, nil
			},
		})
		w++
	}
	for _, fb := range fuzzBatches {
		fb := fb
		kinds = append(kinds, opKind{
			name:   "explore.Fuzz " + fb.name,
			weight: exploreWeights[w],
			run: func(tr *tracer, parent, i int) (opOut, error) {
				rep, err := explore.Fuzz(fb.cfg, explore.FuzzOptions{Samples: fb.samples, Seed: fuzzSeed(seed, i), Workers: 1})
				if err != nil {
					return opOut{}, err
				}
				if len(rep.Failures) != 0 {
					f := rep.Failures[0]
					return opOut{}, fmt.Errorf("fuzz %s: %d failures, first %s: %s", fb.name, len(rep.Failures), f.Kind, f.Detail)
				}
				if rep.Samples != fb.samples {
					return opOut{}, fmt.Errorf("fuzz %s: ran %d samples, want %d", fb.name, rep.Samples, fb.samples)
				}
				return opOut{steps: int64(rep.TotalSteps)}, nil
			},
		})
		w++
	}
	// The campaign state lives across a run's rounds; set-up restarts it.
	var st *campaign.State
	kinds = append(kinds, opKind{
		name:   "campaign round",
		weight: exploreWeights[w],
		run: func(tr *tracer, parent, i int) (opOut, error) {
			var rr *campaign.RoundResult
			var err error
			tr.do(parent, "campaign.ExecuteRound", func() {
				rr, err = campaign.ExecuteRound(context.Background(), st.NextRound(), 1)
			})
			if err != nil {
				return opOut{}, err
			}
			before := st.TotalSteps
			var delta campaign.RoundDelta
			tr.do(parent, "campaign.ApplyRound", func() { delta, err = st.ApplyRound(rr) })
			if err != nil {
				return opOut{}, err
			}
			if len(delta.Failures) != 0 || st.Corpus.Len() == 0 {
				return opOut{}, fmt.Errorf("campaign round %d: %d failing inputs, corpus %d", rr.Round, len(delta.Failures), st.Corpus.Len())
			}
			return opOut{steps: st.TotalSteps - before}, nil
		},
	})
	return closedRun{
		kinds: kinds,
		setup: func() error {
			st = campaign.NewState(campaignSpec(seed))
			return warmUp(kinds)
		},
		layers: func(ph closedPhase, tr *tracer, m map[string]float64) error {
			exploreLayers(kinds, ph, tr, m)
			m["campaign.corpus_len"] = float64(st.Corpus.Len())
			return nil
		},
	}
}

// exploreLayers derives the explore, llsc and campaign metrics from the
// traced phase's ops.
func exploreLayers(kinds []opKind, ph closedPhase, tr *tracer, m map[string]float64) {
	var runs, states, truncated, exMS, allocs, bytes, fuzzSteps, fuzzMS float64
	byKind := make(map[string][]float64)
	for _, r := range ph.recs {
		name := kinds[r.kind].name
		byKind[name] = append(byKind[name], r.ms)
		switch {
		case r.out.runs > 0:
			runs += float64(r.out.runs)
			states += float64(r.out.states)
			truncated += float64(r.out.truncated)
			exMS += r.ms
			allocs += float64(r.allocs)
			bytes += float64(r.bytes)
		case name != "campaign round":
			fuzzSteps += float64(r.out.steps)
			fuzzMS += r.ms
		}
	}
	cycles := float64(len(ph.cycles))
	m["explore.dfs_runs_per_s"] = runs / (exMS / 1000)
	m["explore.ns_per_run"] = exMS * 1e6 / runs
	m["explore.allocs_per_run"] = allocs / runs
	m["explore.bytes_per_run"] = bytes / runs
	m["explore.states"] = states / cycles
	m["explore.truncated"] = truncated / cycles
	m["explore.useful_ratio"] = states / runs
	m["explore.fuzz_steps_per_s"] = fuzzSteps / (fuzzMS / 1000)
	bw := median(byKind["explore.Exhaustive tas-tournament n=2 bw"])
	native := median(byKind["explore.Exhaustive tas-tournament n=2 native"])
	m["llsc.bw_over_native"] = bw / native
	m["campaign.round_ms"] = tr.medianMS("campaign.ExecuteRound")
	m["campaign.apply_ms"] = tr.medianMS("campaign.ApplyRound")
}
