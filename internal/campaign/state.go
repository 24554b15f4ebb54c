package campaign

import (
	"encoding/json"
	"fmt"
	"slices"

	"jayanti98/internal/explore"
)

// Finding is one confirmed, shrunk violation surfaced by a campaign.
type Finding struct {
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
	// Schedule is the shrunk failing schedule; OriginalLen its length
	// before shrinking.
	Schedule    []int     `json:"schedule"`
	Tosses      [][]int64 `json:"tosses"`
	OriginalLen int       `json:"originalLen"`
	// Round and Slot locate the run that found it; Seed is that slot's
	// derived seed (provenance).
	Round int   `json:"round"`
	Slot  int   `json:"slot"`
	Seed  int64 `json:"seed"`
	// Path is the persisted replay file ("" when no findings dir is
	// configured). Execution metadata, deliberately excluded from the
	// checkpoint's determinism surface along with nothing else — the path
	// is stable given a stable findings dir.
	Path string `json:"path,omitempty"`
}

// key is the finding's dedupe identity: kind plus the shrunk schedule.
// Distinct raw runs routinely shrink to one canonical counterexample;
// storing it once keeps stats meaningful on a campaign that hits the same
// bug every round.
func (f *Finding) key() string {
	return fmt.Sprintf("%s|%v", f.Kind, f.Schedule)
}

// State is a campaign's complete deterministic state: everything a
// checkpoint must capture for a restarted server to resume byte-identically.
// Wall-clock stats (start time, execs/sec) live in the manager, not here.
type State struct {
	Spec Spec `json:"spec"`
	// Round is the next round to execute (== rounds completed).
	Round int `json:"round"`
	// Execs counts inputs executed; TotalSteps the shared-memory steps.
	Execs      int64 `json:"execs"`
	TotalSteps int64 `json:"totalSteps"`
	// Coverage is the covered state-digest set, ascending (the canonical
	// snapshot order).
	Coverage []uint64 `json:"coverage"`
	Corpus   Corpus   `json:"corpus"`
	// Findings are the kept (deduped, capped) shrunk violations;
	// FindingsSeen counts every failing input observed, including
	// duplicates of kept findings and failures beyond the cap.
	Findings     []Finding `json:"findings"`
	FindingsSeen int64     `json:"findingsSeen"`

	// cov mirrors Coverage as a set for O(1) novelty checks; rebuilt on
	// decode, maintained by ApplyRound.
	cov *explore.Coverage
}

// NewState builds the initial state of a normalized spec.
func NewState(spec Spec) *State {
	return &State{Spec: spec, cov: explore.NewCoverage()}
}

// coverage returns the live coverage set, rebuilding it from the snapshot
// after a decode.
func (st *State) coverage() *explore.Coverage {
	if st.cov == nil {
		st.cov = explore.NewCoverageFrom(st.Coverage)
	}
	return st.cov
}

// NextRound freezes the round the campaign should execute next: the
// current corpus schedules plus the round counter.
func (st *State) NextRound() *RoundSpec {
	return &RoundSpec{Campaign: st.Spec, Round: st.Round, Corpus: st.Corpus.Schedules()}
}

// RoundDelta summarizes what one applied round changed.
type RoundDelta struct {
	// NewDigests is how many previously unseen state digests the round
	// reached; NewEntries how many corpus entries it added.
	NewDigests int
	NewEntries int
	// Failures are the round's failing inputs (slot order) with their
	// slots, for the manager's shrink-and-persist workflow.
	Failures []SlotFailure
}

// SlotFailure pairs a failing input with its slot.
type SlotFailure struct {
	Slot   int
	Result InputResult
}

// ApplyRound folds a completed round into the state: traces merge into the
// coverage map in slot order, inputs that reached novel digests join the
// corpus, counters advance, and the round counter increments. Slot order
// makes the fold independent of how the round was executed — the corpus
// a 16-worker fleet evolves is the corpus the serial loop evolves.
//
// Failures are returned, not folded: confirming and shrinking them needs
// re-execution, which is the manager's job (RecordFinding stores the
// outcome).
func (st *State) ApplyRound(rr *RoundResult) (RoundDelta, error) {
	if rr.Round != st.Round {
		return RoundDelta{}, fmt.Errorf("campaign: applying round %d to state at round %d", rr.Round, st.Round)
	}
	if len(rr.Results) != st.Spec.BatchSize {
		return RoundDelta{}, fmt.Errorf("campaign: round %d has %d results, want %d", rr.Round, len(rr.Results), st.Spec.BatchSize)
	}
	var delta RoundDelta
	var added []uint64
	cov := st.coverage()
	for slot, res := range rr.Results {
		st.Execs++
		st.TotalSteps += int64(res.Steps)
		fresh := cov.AddTrace(res.Trace)
		added = append(added, fresh...)
		delta.NewDigests += len(fresh)
		if len(fresh) > 0 && len(res.Schedule) > 0 {
			st.Corpus.Add(Entry{
				Schedule:   res.Schedule,
				Round:      rr.Round,
				Slot:       slot,
				NewDigests: len(fresh),
			}, st.Spec.MaxCorpus)
			delta.NewEntries++
		}
		if res.FailKind != "" {
			st.FindingsSeen++
			delta.Failures = append(delta.Failures, SlotFailure{Slot: slot, Result: res})
		}
	}
	st.Coverage = mergeSorted(st.Coverage, added)
	st.Round++
	return delta, nil
}

// mergeSorted returns the ascending union of sorted, an ascending set, and
// fresh, whose digests are distinct and not in sorted; it sorts fresh in
// place. Only the round's new digests are sorted, so a round costs time
// linear in the coverage it has already accumulated.
func mergeSorted(sorted, fresh []uint64) []uint64 {
	slices.Sort(fresh)
	out := make([]uint64, 0, len(sorted)+len(fresh))
	for len(sorted) > 0 && len(fresh) > 0 {
		if sorted[0] < fresh[0] {
			out, sorted = append(out, sorted[0]), sorted[1:]
		} else {
			out, fresh = append(out, fresh[0]), fresh[1:]
		}
	}
	out = append(out, sorted...)
	return append(out, fresh...)
}

// MaxStoredFindings caps the kept findings per campaign; failures beyond
// it still count in FindingsSeen.
const MaxStoredFindings = 16

// RecordFinding stores a shrunk finding unless an equal one (same kind and
// shrunk schedule) is already kept or the cap is reached. It reports
// whether the finding was added.
func (st *State) RecordFinding(f Finding) bool {
	if len(st.Findings) >= MaxStoredFindings {
		return false
	}
	key := f.key()
	for i := range st.Findings {
		if st.Findings[i].key() == key {
			return false
		}
	}
	st.Findings = append(st.Findings, f)
	return true
}

// CoverageDigest folds the coverage set to one 64-bit value (see
// explore.Coverage.Digest).
func (st *State) CoverageDigest() uint64 {
	return st.coverage().Digest()
}

// Encode serializes the state as its checkpoint record. The bytes are
// deterministic — struct fields marshal in declared order and every slice
// is in a canonical order — so "resumes byte-identically" is checkable by
// comparing checkpoints.
func (st *State) Encode() ([]byte, error) {
	data, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("campaign: encoding state: %w", err)
	}
	return data, nil
}

// DecodeState restores a checkpointed state.
func DecodeState(data []byte) (*State, error) {
	var st State
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("campaign: decoding state: %w", err)
	}
	st.Spec.Normalize()
	if err := st.Spec.Validate(); err != nil {
		return nil, err
	}
	st.cov = explore.NewCoverageFrom(st.Coverage)
	if len(st.Coverage) != st.cov.Len() || !slices.IsSorted(st.Coverage) {
		// ApplyRound merges into Coverage, which needs the canonical form.
		st.Coverage = st.cov.Snapshot()
	}
	return &st, nil
}
