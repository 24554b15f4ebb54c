// Package jobs is the experiment job service: typed, content-addressed
// job specs for the repository's workloads (lbreport experiments,
// universal-construction sweeps, schedule exploration), a
// bounded-concurrency scheduler that runs them over the deterministic
// sweep engine, and a content-addressed result cache.
//
// Identity and caching rest on one invariant inherited from the sweep
// engine's determinism contract: a job's result depends only on its
// normalized Spec — never on worker counts, goroutine scheduling, or wall
// clock. The job ID is therefore the SHA-256 of the Spec's canonical
// encoding, and a repeated Spec can be served from cache byte-identically.
// Execution knobs (sweep parallelism, deadlines) deliberately live in the
// scheduler, not the Spec: they cannot change a result, so they must not
// fragment the cache.
package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"

	"jayanti98/internal/algos"
	"jayanti98/internal/campaign"
	"jayanti98/internal/experiments"
	"jayanti98/internal/explore"
	"jayanti98/internal/lowerbound"
	"jayanti98/internal/universal"
)

// Spec is the envelope submitted to the service: a kind plus exactly one
// kind-specific spec. The zero fields of the active sub-spec are filled
// with defaults by Normalize before hashing, so semantically identical
// submissions share one job ID.
type Spec struct {
	// Kind selects the workload: "report", "sweep", "explore", or
	// "campaign-round".
	Kind string `json:"kind"`

	Report  *ReportSpec  `json:"report,omitempty"`
	Sweep   *SweepSpec   `json:"sweep,omitempty"`
	Explore *ExploreSpec `json:"explore,omitempty"`
	// CampaignRound is one round of a coverage-guided campaign
	// (internal/campaign): the campaign manager submits these — one job
	// per round — so rounds ride the scheduler, the dist shard-lease
	// protocol, and the content-addressed cache like any other job. The
	// round spec carries the round-start corpus, so cached round results
	// and leased shards are both self-contained.
	CampaignRound *campaign.RoundSpec `json:"campaignRound,omitempty"`
}

// The job kinds.
const (
	KindReport        = "report"
	KindSweep         = "sweep"
	KindExplore       = "explore"
	KindCampaignRound = "campaign-round"
)

// ReportSpec runs a subset of the E1–E12 experiment report
// (internal/experiments) and returns each section's markdown plus its
// tables in structured form.
type ReportSpec struct {
	// Experiments selects a subset by name, in any order (empty: all).
	// Normalization sorts them into report order.
	Experiments []string `json:"experiments,omitempty"`
	// Quick shrinks the sweeps to smoke-run sizes.
	Quick bool `json:"quick,omitempty"`
}

// SweepSpec sweeps universal constructions over doubling process counts
// on one object workload (cmd/unisweep as a job).
type SweepSpec struct {
	// Type is the object workload: one of lowerbound.SweepTypes().
	Type string `json:"type"`
	// Constructions selects constructions by name (empty: all, in
	// universal.Names() order).
	Constructions []string `json:"constructions,omitempty"`
	// MaxN is the largest process count; the sweep doubles from 2.
	// Defaults to 64.
	MaxN int `json:"maxN,omitempty"`
}

// Ns returns the sweep's process counts: doubling from 2 up to MaxN.
// The slice is the coordinate axis shared by serial execution
// (runSweep), the distributed shard partitioner (internal/dist), and
// result assembly (BuildSweepResult); all three must agree on it.
func (s *SweepSpec) Ns() []int {
	var ns []int
	for n := 2; n <= s.MaxN; n *= 2 {
		ns = append(ns, n)
	}
	return ns
}

// ConstructionNames resolves the construction axis of the sweep: the
// selected names, or every registered construction (universal.Names()
// order) when the selection is empty. The spec must be normalized.
func (s *SweepSpec) ConstructionNames() []string {
	if len(s.Constructions) > 0 {
		return s.Constructions
	}
	return universal.Names()
}

// ExploreSpec searches the schedule space of one construction or zoo
// algorithm (cmd/explore as a job).
type ExploreSpec struct {
	// Alg is the system under test: a construction (universal.Names()) or
	// a zoo algorithm (algos.Names()). Defaults to "group-update".
	Alg string `json:"alg,omitempty"`
	// Object is the workload (explore.Workloads()). Defaults to
	// "fetch-increment" for constructions and to the algorithm's own
	// workload for zoo entries.
	Object string `json:"object,omitempty"`
	// N is the number of processes (default 2).
	N int `json:"n,omitempty"`
	// OpsPerProc is operations per process (default 1).
	OpsPerProc int `json:"opsPerProc,omitempty"`
	// Mode is "exhaustive" or "fuzz" (default "fuzz").
	Mode string `json:"mode,omitempty"`
	// Samples is the fuzz sample count (default 200; ignored for
	// exhaustive).
	Samples int `json:"samples,omitempty"`
	// Seed is the fuzz campaign base seed (default 1; ignored for
	// exhaustive).
	Seed int64 `json:"seed,omitempty"`
	// Budget bounds total steps (0: automatic).
	Budget int `json:"budget,omitempty"`
	// LLSC selects the shared-memory backend: "" or "native" (the
	// pset-based register file of internal/shmem) or "bw" (the
	// Blelloch–Wei backend, internal/algos/bwllsc), as in explore.Config.
	LLSC string `json:"llsc,omitempty"`
}

// Config is the explore configuration the spec runs. The local run
// (runExplore) and the distributed fuzz shards (internal/dist) both build
// it here, so neither can drop a field.
func (e *ExploreSpec) Config() explore.Config {
	return explore.Config{
		Alg:        e.Alg,
		Object:     e.Object,
		N:          e.N,
		OpsPerProc: e.OpsPerProc,
		Budget:     e.Budget,
		LLSC:       e.LLSC,
	}
}

// Normalize fills defaults in place so that semantically identical specs
// produce identical canonical encodings. It is idempotent.
func (s *Spec) Normalize() {
	switch s.Kind {
	case KindReport:
		if s.Report == nil {
			s.Report = &ReportSpec{}
		}
		if sel, err := experiments.For(s.Report.Experiments); err == nil {
			if len(sel) == len(experiments.Names()) {
				// Selecting everything is the same job as selecting nothing.
				s.Report.Experiments = nil
			} else {
				// Store in report order, the order they will run in.
				names := make([]string, len(sel))
				for i, e := range sel {
					names[i] = e.Name
				}
				s.Report.Experiments = names
			}
		}
	case KindSweep:
		if s.Sweep == nil {
			s.Sweep = &SweepSpec{}
		}
		if s.Sweep.MaxN == 0 {
			s.Sweep.MaxN = 64
		}
		if len(s.Sweep.Constructions) > 0 {
			all := universal.Names()
			if len(s.Sweep.Constructions) == len(all) && containsAll(s.Sweep.Constructions, all) {
				s.Sweep.Constructions = nil
			} else {
				ordered := make([]string, 0, len(s.Sweep.Constructions))
				for _, name := range all {
					if slices.Contains(s.Sweep.Constructions, name) {
						ordered = append(ordered, name)
					}
				}
				// Unknown names survive normalization (unordered, sorted)
				// so Validate can reject them deterministically.
				var unknown []string
				for _, name := range s.Sweep.Constructions {
					if !slices.Contains(all, name) {
						unknown = append(unknown, name)
					}
				}
				sort.Strings(unknown)
				s.Sweep.Constructions = append(ordered, unknown...)
			}
		}
	case KindExplore:
		if s.Explore == nil {
			s.Explore = &ExploreSpec{}
		}
		e := s.Explore
		if e.Alg == "" {
			e.Alg = "group-update"
		}
		if e.Object == "" {
			if zs, ok := algos.For(e.Alg); ok {
				e.Object = zs.Object
			} else {
				e.Object = "fetch-increment"
			}
		}
		if e.LLSC != "" {
			// Canonicalize backend aliases ("blelloch-wei" → "bw"); the
			// native backend's canonical spelling is the empty field, so
			// pre-backend job IDs stay valid cache keys.
			if kind, err := explore.ParseBackend(e.LLSC); err == nil {
				if kind == explore.BackendNative {
					e.LLSC = ""
				} else {
					e.LLSC = "bw"
				}
			}
		}
		if e.N == 0 {
			e.N = 2
		}
		if e.OpsPerProc == 0 {
			e.OpsPerProc = 1
		}
		if e.Mode == "" {
			e.Mode = "fuzz"
		}
		if e.Mode == "fuzz" {
			if e.Samples == 0 {
				e.Samples = 200
			}
			if e.Seed == 0 {
				e.Seed = 1
			}
		} else {
			// Exhaustive search ignores sampling knobs; zero them so the
			// cache does not split on irrelevant fields.
			e.Samples = 0
			e.Seed = 0
		}
	case KindCampaignRound:
		if s.CampaignRound == nil {
			s.CampaignRound = &campaign.RoundSpec{}
		}
		s.CampaignRound.Campaign.Normalize()
	}
}

// Validate reports the first problem with the (normalized) spec.
func (s *Spec) Validate() error {
	set := 0
	for _, sub := range []bool{s.Report != nil, s.Sweep != nil, s.Explore != nil, s.CampaignRound != nil} {
		if sub {
			set++
		}
	}
	switch s.Kind {
	case KindReport:
		if s.Report == nil || set != 1 {
			return fmt.Errorf("jobs: kind %q needs exactly the %q sub-spec", s.Kind, s.Kind)
		}
		_, err := experiments.For(s.Report.Experiments)
		return err
	case KindSweep:
		if s.Sweep == nil || set != 1 {
			return fmt.Errorf("jobs: kind %q needs exactly the %q sub-spec", s.Kind, s.Kind)
		}
		if _, err := lowerbound.SweepTypeFor(s.Sweep.Type); err != nil {
			return err
		}
		for _, name := range s.Sweep.Constructions {
			if !slices.Contains(universal.Names(), name) {
				return fmt.Errorf("jobs: unknown construction %q", name)
			}
		}
		if s.Sweep.MaxN < 2 || s.Sweep.MaxN > 1<<20 {
			return fmt.Errorf("jobs: sweep maxN %d out of range [2, 2^20]", s.Sweep.MaxN)
		}
		return nil
	case KindExplore:
		if s.Explore == nil || set != 1 {
			return fmt.Errorf("jobs: kind %q needs exactly the %q sub-spec", s.Kind, s.Kind)
		}
		e := s.Explore
		zs, isZoo := algos.For(e.Alg)
		if !isZoo && !slices.Contains(universal.Names(), e.Alg) {
			return fmt.Errorf("jobs: unknown construction or algorithm %q", e.Alg)
		}
		if !slices.Contains(explore.Workloads(), e.Object) {
			return fmt.Errorf("jobs: unknown explore workload %q", e.Object)
		}
		if e.N < 2 || e.N > 8 {
			return fmt.Errorf("jobs: explore n %d out of range [2, 8]", e.N)
		}
		if e.OpsPerProc < 1 || e.OpsPerProc > 8 {
			return fmt.Errorf("jobs: explore opsPerProc %d out of range [1, 8]", e.OpsPerProc)
		}
		if isZoo {
			// Mirror explore.newRunner's zoo-algorithm constraints at submit time so a
			// bad spec fails before it is scheduled.
			if e.Object != zs.Object {
				return fmt.Errorf("jobs: algorithm %s implements workload %q, got %q", e.Alg, zs.Object, e.Object)
			}
			if e.OpsPerProc != 1 {
				return fmt.Errorf("jobs: algorithm %s is one-shot (opsPerProc must be 1, got %d)", e.Alg, e.OpsPerProc)
			}
			if zs.MaxN > 0 && e.N > zs.MaxN {
				return fmt.Errorf("jobs: algorithm %s supports at most n = %d, got %d", e.Alg, zs.MaxN, e.N)
			}
		}
		if e.LLSC != "" {
			if _, err := explore.ParseBackend(e.LLSC); err != nil {
				return fmt.Errorf("jobs: %w", err)
			}
		}
		switch e.Mode {
		case "exhaustive":
		case "fuzz":
			if e.Samples < 1 || e.Samples > 1_000_000 {
				return fmt.Errorf("jobs: explore samples %d out of range [1, 1e6]", e.Samples)
			}
		default:
			return fmt.Errorf("jobs: explore mode %q (want exhaustive or fuzz)", e.Mode)
		}
		if e.Budget < 0 {
			return fmt.Errorf("jobs: explore budget %d negative", e.Budget)
		}
		return nil
	case KindCampaignRound:
		if s.CampaignRound == nil || set != 1 {
			return fmt.Errorf("jobs: kind %q needs exactly the campaignRound sub-spec", s.Kind)
		}
		cr := s.CampaignRound
		if err := cr.Campaign.Validate(); err != nil {
			return err
		}
		if cr.Round < 0 {
			return fmt.Errorf("jobs: campaign round %d negative", cr.Round)
		}
		for i, sched := range cr.Corpus {
			for _, pid := range sched {
				if pid < 0 || pid >= cr.Campaign.N {
					return fmt.Errorf("jobs: campaign corpus entry %d has pid %d outside [0, %d)", i, pid, cr.Campaign.N)
				}
			}
		}
		return nil
	case "":
		return fmt.Errorf("jobs: missing kind (want %s, %s, %s, or %s)", KindReport, KindSweep, KindExplore, KindCampaignRound)
	default:
		return fmt.Errorf("jobs: unknown kind %q (want %s, %s, %s, or %s)", s.Kind, KindReport, KindSweep, KindExplore, KindCampaignRound)
	}
}

// Canonical returns the spec's canonical encoding (campaign.CanonicalJSON):
// object keys are sorted, the bytes are independent of struct field order,
// and every integer keeps all its digits. The spec must already be
// normalized (ID and the scheduler do this).
func (s *Spec) Canonical() ([]byte, error) {
	out, err := campaign.CanonicalJSON(s)
	if err != nil {
		return nil, fmt.Errorf("jobs: canonical encoding: %w", err)
	}
	return out, nil
}

// ID normalizes and validates the spec and returns its content hash — the
// lowercase hex SHA-256 of the canonical encoding — which is the job ID
// and the cache key.
func (s *Spec) ID() (string, error) {
	s.Normalize()
	if err := s.Validate(); err != nil {
		return "", err
	}
	canon, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

func containsAll(have, want []string) bool {
	for _, w := range want {
		if !slices.Contains(have, w) {
			return false
		}
	}
	return true
}
