package explore

import (
	"encoding/json"
	"fmt"
	"os"

	"jayanti98/internal/machine"
	"jayanti98/internal/trace"
)

// Replay is a self-contained, serializable reproduction of a failing run:
// the configuration, the (shrunk) schedule, the exact coin tosses each
// process consumed, and the event log the failure produced. Re-running it
// with Verify must reproduce the failure bit-for-bit.
type Replay struct {
	Alg        string `json:"alg"`
	Object     string `json:"object"`
	N          int    `json:"n"`
	OpsPerProc int    `json:"ops_per_proc"`
	// Budget is the configured step budget (0: automatic). It matters for
	// reproducing budget-exhaustion failures.
	Budget int `json:"budget,omitempty"`
	// LLSC is the LL/SC backend the failure was found on ("" = native; see
	// ParseBackend). The backends are proven equivalent, but a replay
	// must reproduce on the backend that produced it.
	LLSC string `json:"llsc,omitempty"`
	// Seed is the fuzz sample seed the failure was found with (provenance
	// only; the schedule and tosses below are what reproduce it).
	Seed int64       `json:"seed,omitempty"`
	Kind FailureKind `json:"kind"`
	// Detail is the failure diagnosis of the recorded run.
	Detail string `json:"detail"`
	// Schedule is the failing schedule (pids, in step order).
	Schedule []int `json:"schedule"`
	// Tosses holds the coin tosses each process consumed, in toss order.
	Tosses [][]int64 `json:"tosses"`
	// Events is the recorded event log, for bit-for-bit comparison.
	Events []string `json:"events"`
	// OriginalLen is the schedule length before shrinking.
	OriginalLen int `json:"original_len,omitempty"`
}

// Config reconstructs the run configuration of the replay.
func (rp *Replay) Config() Config {
	return Config{
		Alg:        rp.Alg,
		Object:     rp.Object,
		N:          rp.N,
		OpsPerProc: rp.OpsPerProc,
		Budget:     rp.Budget,
		LLSC:       rp.LLSC,
		Tosses:     ReplayTosses(rp.Tosses),
	}
}

// NewReplay builds the replay of a failing run found under cfg: final is
// the (shrunk) failing run, seed the sample seed it was found with, and
// originalLen the schedule length before shrinking.
func NewReplay(cfg Config, final *RunRecord, seed int64, originalLen int) *Replay {
	return &Replay{
		Alg:         cfg.Alg,
		Object:      cfg.Object,
		N:           cfg.N,
		OpsPerProc:  cfg.OpsPerProc,
		Budget:      cfg.Budget,
		LLSC:        cfg.LLSC,
		Seed:        seed,
		Kind:        final.Failure.Kind,
		Detail:      final.Failure.Detail,
		Schedule:    final.Schedule,
		Tosses:      final.Tosses,
		Events:      final.Events,
		OriginalLen: originalLen,
	}
}

// ReplayTosses turns a recorded per-process toss log (RunRecord.Tosses)
// back into a toss assignment; unrecorded tosses default to 0.
func ReplayTosses(tosses [][]int64) machine.TossAssignment {
	return func(pid, j int) int64 {
		if pid < len(tosses) && j < len(tosses[pid]) {
			return tosses[pid][j]
		}
		return 0
	}
}

// WriteReplay persists a replay as indented JSON.
func WriteReplay(path string, rp *Replay) error {
	data, err := json.MarshalIndent(rp, "", "  ")
	if err != nil {
		return fmt.Errorf("explore: replay: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("explore: replay: %w", err)
	}
	return nil
}

// ReadReplay loads a replay written by WriteReplay.
func ReadReplay(path string) (*Replay, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("explore: replay: %w", err)
	}
	var rp Replay
	if err := json.Unmarshal(data, &rp); err != nil {
		return nil, fmt.Errorf("explore: replay %s: %w", path, err)
	}
	return &rp, nil
}

// Verify re-executes the replay and checks that it reproduces bit-for-bit:
// same failure kind, same executed schedule, and an event-for-event
// identical log. It returns the failing run's record and "" on success, or
// a description of the first divergence.
func Verify(rp *Replay) (*RunRecord, string, error) {
	rec, err := RunSchedule(rp.Config(), rp.Schedule)
	if err != nil {
		return nil, "", err
	}
	if rec.Failure == nil {
		return rec, fmt.Sprintf("recorded failure %q did not reproduce (clean run of %d steps)", rp.Kind, rec.Steps), nil
	}
	if rec.Failure.Kind != rp.Kind {
		return rec, fmt.Sprintf("failure kind: recorded %q, got %q", rp.Kind, rec.Failure.Kind), nil
	}
	if d := trace.DiffLines("schedule", renderPids(rp.Schedule), renderPids(rec.Schedule)); d != "" {
		return rec, d, nil
	}
	if d := trace.DiffLines("events", rp.Events, rec.Events); d != "" {
		return rec, d, nil
	}
	return rec, "", nil
}

func renderPids(pids []int) []string {
	out := make([]string, len(pids))
	for i, p := range pids {
		out[i] = fmt.Sprintf("p%d", p)
	}
	return out
}
