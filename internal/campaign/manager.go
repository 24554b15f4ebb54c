package campaign

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"jayanti98/internal/explore"
	"jayanti98/internal/obs"
	"jayanti98/internal/sweep"
)

// Executor runs one campaign round somewhere — in-process
// (LocalExecutor), or through the job scheduler and the dist shard-lease
// protocol (jobs.NewRoundExecutor), which is how a worker fleet executes
// rounds. The returned result must obey the round determinism contract:
// identical to every other correct execution of the same RoundSpec.
type Executor interface {
	ExecuteRound(ctx context.Context, rs *RoundSpec) (*RoundResult, error)
}

// LocalExecutor executes rounds in-process over the sweep worker pool.
type LocalExecutor struct {
	// Parallel bounds worker goroutines (sweep.Workers semantics).
	Parallel int
}

// ExecuteRound implements Executor.
func (e *LocalExecutor) ExecuteRound(ctx context.Context, rs *RoundSpec) (*RoundResult, error) {
	return ExecuteRound(ctx, rs, e.Parallel)
}

// Checkpointer persists campaign state between process lives — the jobs
// cache's checkpoint class implements it (jobs.Cache.Checkpoints), keyed by
// campaign ID.
type Checkpointer interface {
	Put(id string, data []byte) error
	Get(id string) ([]byte, bool)
}

// CampaignStatus is a campaign's lifecycle state.
type CampaignStatus string

// The campaign states. Unlike jobs, "done" is exceptional — it only
// happens when MaxRounds bounds the campaign; the normal terminal state of
// an indefinite campaign is "stopped".
const (
	CampaignRunning CampaignStatus = "running"
	CampaignStopped CampaignStatus = "stopped"
	CampaignDone    CampaignStatus = "done"
	CampaignFailed  CampaignStatus = "failed"
)

// Terminal reports whether the status is final (restartable via Start).
func (s CampaignStatus) Terminal() bool { return s != CampaignRunning }

// View is an immutable snapshot of a campaign — the unit the HTTP layer
// serves.
type View struct {
	ID     string         `json:"id"`
	Spec   Spec           `json:"spec"`
	Status CampaignStatus `json:"status"`
	Error  string         `json:"error,omitempty"`

	// Rounds is the number of completed rounds; Execs/TotalSteps the
	// cumulative input and step counts (across restarts — they live in
	// the checkpoint).
	Rounds     int   `json:"rounds"`
	Execs      int64 `json:"execs"`
	TotalSteps int64 `json:"totalSteps"`
	// ExecsPerSec is the throughput of this process's tenure (resumed
	// campaigns do not average over downtime).
	ExecsPerSec float64 `json:"execsPerSec"`

	// CorpusSize/CorpusDigest describe the interesting-schedule corpus;
	// CoverageSize counts distinct state digests reached.
	CorpusSize   int    `json:"corpusSize"`
	CorpusDigest string `json:"corpusDigest"`
	CoverageSize int    `json:"coverageSize"`
	// NewCoverageRate is the fraction of the last round's inputs' digests
	// that were novel: fresh digests last round / batch size. A healthy
	// young campaign sits well above 0; a plateaued one at 0.
	NewCoverageRate float64 `json:"newCoverageRate"`

	// FindingsSeen counts every failing input ever observed; Findings are
	// the kept (shrunk, deduped, capped) counterexamples.
	FindingsSeen int64     `json:"findingsSeen"`
	Findings     []Finding `json:"findings,omitempty"`

	Started time.Time `json:"started"`
}

// ManagerOptions configures a Manager. Everything here is an execution
// knob: none of it may change what a campaign computes, only where, how
// fast, and what is persisted.
type ManagerOptions struct {
	// Executor runs rounds (nil: LocalExecutor with default parallelism).
	Executor Executor
	// Checkpointer persists state across restarts (nil: no persistence).
	Checkpointer Checkpointer
	// CheckpointEvery checkpoints after every k-th round (≤ 0: 1, every
	// round — rounds are seconds, checkpoints are kilobytes).
	CheckpointEvery int
	// FindingsDir receives one replay file per kept finding (empty: no
	// files; findings still appear in stats).
	FindingsDir string
	// ShrinksPerRound bounds shrink attempts per round (≤ 0: 4) — a
	// round of a very broken construction can fail in every slot, and
	// each shrink is many re-executions.
	ShrinksPerRound int
	// Obs, Tracer, Logger are the observability sinks (nil: process
	// defaults / discard).
	Obs    *obs.Registry
	Tracer *obs.Tracer
	Logger *slog.Logger
}

// instance is one tracked campaign: its deterministic state plus the
// runtime around it.
type instance struct {
	id string

	mu             sync.Mutex
	state          *State
	status         CampaignStatus
	errMsg         string
	started        time.Time
	procStart      time.Time // this process's tenure, for execs/sec
	procExecs      int64
	lastNewDigests int

	cancel context.CancelFunc
	done   chan struct{} // closed when the loop exits
}

// Manager owns the campaign instances of one server: starting, stopping,
// resuming from checkpoints, and snapshotting stats.
type Manager struct {
	opts ManagerOptions

	mu        sync.Mutex
	campaigns map[string]*instance
	draining  bool

	reg    *obs.Registry
	tracer *obs.Tracer
	logger *slog.Logger
	met    struct {
		rounds, execs, newDigests, findings *obs.Counter
	}
}

// ErrShuttingDown is returned by Start after Shutdown has begun.
var ErrShuttingDown = errors.New("campaign: manager shutting down")

// NewManager builds a manager and registers its metrics.
func NewManager(opts ManagerOptions) *Manager {
	if opts.Executor == nil {
		opts.Executor = &LocalExecutor{}
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 1
	}
	if opts.ShrinksPerRound <= 0 {
		opts.ShrinksPerRound = 4
	}
	m := &Manager{opts: opts, campaigns: make(map[string]*instance)}
	m.reg = opts.Obs
	if m.reg == nil {
		m.reg = obs.Default()
	}
	m.tracer = opts.Tracer
	if m.tracer == nil {
		m.tracer = obs.DefaultTracer()
	}
	m.logger = opts.Logger
	if m.logger == nil {
		m.logger = obs.NopLogger()
	}
	m.met.rounds = m.reg.Counter("campaign_rounds_total", "Campaign rounds completed.", nil)
	m.met.execs = m.reg.Counter("campaign_execs_total", "Campaign inputs executed (schedules run).", nil)
	m.met.newDigests = m.reg.Counter("campaign_new_digests_total", "Previously unseen state digests reached by campaign inputs.", nil)
	m.met.findings = m.reg.Counter("campaign_findings_total", "Shrunk, deduplicated campaign findings kept.", nil)
	m.reg.GaugeFunc("campaign_active", "Campaigns currently running.", nil, func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		active := 0
		for _, c := range m.campaigns {
			c.mu.Lock()
			if c.status == CampaignRunning {
				active++
			}
			c.mu.Unlock()
		}
		return float64(active)
	})
	m.reg.GaugeFunc("campaign_corpus_entries", "Corpus entries across all tracked campaigns.", nil, func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		total := 0
		for _, c := range m.campaigns {
			c.mu.Lock()
			total += c.state.Corpus.Len()
			c.mu.Unlock()
		}
		return float64(total)
	})
	m.reg.GaugeFunc("campaign_coverage_digests", "Distinct state digests covered across all tracked campaigns.", nil, func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		total := 0
		for _, c := range m.campaigns {
			c.mu.Lock()
			total += len(c.state.Coverage)
			c.mu.Unlock()
		}
		return float64(total)
	})
	return m
}

// Start begins (or re-attaches to) the campaign of spec. Submitting a spec
// whose campaign is already running returns the running campaign
// (created=false) — content-hashed identity makes Start idempotent, the
// job-submission contract. A terminal campaign is restarted from its
// in-memory state; an unknown ID with a checkpoint resumes from it, so a
// restarted server picks campaigns up where the previous life left them.
func (m *Manager) Start(spec *Spec) (View, bool, error) {
	id, err := spec.ID()
	if err != nil {
		return View{}, false, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return View{}, false, ErrShuttingDown
	}
	if c, ok := m.campaigns[id]; ok {
		c.mu.Lock()
		running := c.status == CampaignRunning
		c.mu.Unlock()
		if running {
			return c.view(true), false, nil
		}
		// Terminal: restart the loop from the instance's current state.
		m.launchLocked(c)
		return c.view(true), false, nil
	}
	st := NewState(*spec)
	if m.opts.Checkpointer != nil {
		if data, ok := m.opts.Checkpointer.Get(id); ok {
			restored, err := DecodeState(data)
			if err != nil {
				return View{}, false, fmt.Errorf("campaign: checkpoint for %s: %w", obs.ShortID(id), err)
			}
			st = restored
		}
	}
	c := &instance{id: id, state: st, started: time.Now()}
	m.campaigns[id] = c
	m.launchLocked(c)
	return c.view(true), true, nil
}

// Resume restarts the campaign checkpointed under id, if any — the boot
// path of a restarted lbserver. An already-tracked id is returned as is.
func (m *Manager) Resume(id string) (View, error) {
	m.mu.Lock()
	if c, ok := m.campaigns[id]; ok {
		m.mu.Unlock()
		return c.view(true), nil
	}
	m.mu.Unlock()
	if m.opts.Checkpointer == nil {
		return View{}, fmt.Errorf("campaign: no checkpointer configured")
	}
	data, ok := m.opts.Checkpointer.Get(id)
	if !ok {
		return View{}, fmt.Errorf("campaign: no checkpoint for %q", id)
	}
	st, err := DecodeState(data)
	if err != nil {
		return View{}, err
	}
	spec := st.Spec
	return firstView(m.Start(&spec))
}

func firstView(v View, _ bool, err error) (View, error) { return v, err }

// launchLocked starts (or restarts) the instance's round loop. Both
// m.mu and a fresh (non-running) instance are required.
func (m *Manager) launchLocked(c *instance) {
	ctx, cancel := context.WithCancel(context.Background())
	c.mu.Lock()
	c.status = CampaignRunning
	c.errMsg = ""
	c.cancel = cancel
	c.done = make(chan struct{})
	c.procStart = time.Now()
	c.procExecs = 0
	if c.started.IsZero() {
		c.started = c.procStart
	}
	c.mu.Unlock()
	go m.run(ctx, c)
}

// Get snapshots one campaign, findings included.
func (m *Manager) Get(id string) (View, bool) {
	m.mu.Lock()
	c, ok := m.campaigns[id]
	m.mu.Unlock()
	if !ok {
		return View{}, false
	}
	return c.view(true), true
}

// List snapshots every tracked campaign (findings elided — fetch by ID),
// oldest first, ties broken by ID.
func (m *Manager) List() []View {
	m.mu.Lock()
	tracked := make([]*instance, 0, len(m.campaigns))
	for _, c := range m.campaigns {
		tracked = append(tracked, c)
	}
	m.mu.Unlock()
	views := make([]View, 0, len(tracked))
	for _, c := range tracked {
		views = append(views, c.view(false))
	}
	sort.Slice(views, func(i, k int) bool {
		if !views[i].Started.Equal(views[k].Started) {
			return views[i].Started.Before(views[k].Started)
		}
		return views[i].ID < views[k].ID
	})
	return views
}

// Stop cancels a running campaign and waits for its loop to exit (the
// final checkpoint is written before Stop returns). Stopping a terminal
// campaign is a no-op. Returns false for unknown IDs.
func (m *Manager) Stop(id string) (View, bool) {
	m.mu.Lock()
	c, ok := m.campaigns[id]
	m.mu.Unlock()
	if !ok {
		return View{}, false
	}
	c.mu.Lock()
	cancel, done := c.cancel, c.done
	c.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if done != nil {
		<-done
	}
	return c.view(true), true
}

// Shutdown stops every running campaign and waits for their loops — and
// final checkpoints — at most until ctx is done.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	tracked := make([]*instance, 0, len(m.campaigns))
	for _, c := range m.campaigns {
		tracked = append(tracked, c)
	}
	m.mu.Unlock()
	for _, c := range tracked {
		c.mu.Lock()
		cancel := c.cancel
		c.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	for _, c := range tracked {
		c.mu.Lock()
		done := c.done
		c.mu.Unlock()
		if done == nil {
			continue
		}
		select {
		case <-done:
		case <-ctx.Done():
			return fmt.Errorf("campaign: shutdown: %w", ctx.Err())
		}
	}
	return nil
}

// run is the campaign loop: build round → execute → fold → shrink
// failures → checkpoint, until stopped, failed, or MaxRounds.
func (m *Manager) run(ctx context.Context, c *instance) {
	c.mu.Lock()
	done := c.done
	c.mu.Unlock()
	defer close(done)
	logger := m.logger.With("campaign_id", obs.ShortID(c.id))
	ctx = obs.WithLogger(obs.WithCampaignID(ctx, c.id), m.logger)
	logger.Info("campaign started", "alg", c.state.Spec.Alg, "round", c.state.Round)

	final := CampaignStopped
	for {
		c.mu.Lock()
		spec := c.state.Spec
		round := c.state.Round
		rs := c.state.NextRound()
		c.mu.Unlock()
		if spec.MaxRounds > 0 && round >= spec.MaxRounds {
			final = CampaignDone
			break
		}
		if ctx.Err() != nil {
			break
		}

		rctx, span := m.tracer.Start(ctx, "campaign round")
		span.SetAttr("campaign_id", obs.ShortID(c.id))
		span.SetAttr("round", fmt.Sprintf("%d", round))
		start := time.Now()
		rr, err := m.opts.Executor.ExecuteRound(rctx, rs)
		if err != nil {
			span.SetAttr("error", err.Error())
			span.End()
			if ctx.Err() != nil || errors.Is(err, context.Canceled) {
				break
			}
			c.mu.Lock()
			c.errMsg = err.Error()
			c.mu.Unlock()
			logger.Error("campaign round failed", "round", round, "error", err)
			final = CampaignFailed
			break
		}

		c.mu.Lock()
		delta, err := c.state.ApplyRound(rr)
		if err == nil {
			c.procExecs += int64(spec.BatchSize)
			c.lastNewDigests = delta.NewDigests
		} else {
			c.errMsg = err.Error()
		}
		c.mu.Unlock()
		if err != nil {
			span.SetAttr("error", err.Error())
			span.End()
			final = CampaignFailed
			break
		}

		kept := m.processFailures(rctx, c, rr.Round, delta)
		span.SetAttr("new_digests", fmt.Sprintf("%d", delta.NewDigests))
		span.SetAttr("failures", fmt.Sprintf("%d", len(delta.Failures)))
		span.End()

		m.met.rounds.Inc()
		m.met.execs.Add(int64(spec.BatchSize))
		m.met.newDigests.Add(int64(delta.NewDigests))
		if kept > 0 {
			m.met.findings.Add(int64(kept))
		}
		m.reg.Histogram("campaign_round_duration_seconds", "Campaign round wall clock (execute + fold + shrink).",
			nil, nil).Observe(time.Since(start).Seconds())
		logger.Debug("campaign round done", "round", round,
			"new_digests", delta.NewDigests, "failures", len(delta.Failures), "kept_findings", kept)

		if (round+1)%m.opts.CheckpointEvery == 0 {
			m.checkpoint(c, logger)
		}
	}

	m.checkpoint(c, logger)
	c.mu.Lock()
	c.status = final
	c.mu.Unlock()
	logger.Info("campaign "+string(final), "rounds", c.state.Round, "findings_seen", c.state.FindingsSeen)
}

// processFailures confirms, shrinks, persists, and records the round's
// failures, returning how many new findings were kept. Shrinking runs
// under the campaign context, so stopping a campaign cuts a long shrink
// short (explore.Minimize) without losing the counterexample.
func (m *Manager) processFailures(ctx context.Context, c *instance, round int, delta RoundDelta) int {
	kept := 0
	shrinks := 0
	logger := obs.Logger(ctx)
	for _, sf := range delta.Failures {
		c.mu.Lock()
		full := len(c.state.Findings) >= MaxStoredFindings
		spec := c.state.Spec
		c.mu.Unlock()
		if full || shrinks >= m.opts.ShrinksPerRound {
			break
		}
		shrinks++
		res := sf.Result
		seed := sweep.Derive(spec.Seed, round*spec.BatchSize+sf.Slot)
		rp, err := explore.Minimize(ctx, spec.ExploreConfig(), res.Schedule, res.Tosses, explore.FailureKind(res.FailKind), seed)
		if err != nil {
			logger.Warn("campaign failure did not reproduce for shrinking",
				"round", round, "slot", sf.Slot, "kind", res.FailKind, "error", err)
			continue
		}
		f := Finding{
			Kind:        string(rp.Kind),
			Detail:      rp.Detail,
			Schedule:    rp.Schedule,
			Tosses:      rp.Tosses,
			OriginalLen: rp.OriginalLen,
			Round:       round,
			Slot:        sf.Slot,
			Seed:        seed,
		}
		if m.opts.FindingsDir != "" {
			if err := os.MkdirAll(m.opts.FindingsDir, 0o755); err != nil {
				logger.Error("campaign findings dir", "error", err)
			} else {
				path := filepath.Join(m.opts.FindingsDir,
					fmt.Sprintf("campaign-%s-r%d-s%d.json", obs.ShortID(c.id), round, sf.Slot))
				if err := explore.WriteReplay(path, rp); err != nil {
					logger.Error("campaign replay write", "path", path, "error", err)
				} else if _, diff, verr := explore.Verify(rp); verr != nil || diff != "" {
					// A replay that does not reproduce bit-for-bit is a
					// harness bug; keep the file for diagnosis but say so.
					logger.Error("campaign replay failed verification", "path", path, "diff", diff, "error", verr)
				} else {
					f.Path = path
				}
			}
		}
		c.mu.Lock()
		added := c.state.RecordFinding(f)
		c.mu.Unlock()
		if added {
			kept++
			logger.Info("campaign finding kept", "round", round, "slot", sf.Slot,
				"kind", f.Kind, "schedule_len", len(f.Schedule), "shrunk_from", f.OriginalLen, "path", f.Path)
		}
	}
	return kept
}

// checkpoint persists the instance's state under its campaign ID.
func (m *Manager) checkpoint(c *instance, logger *slog.Logger) {
	if m.opts.Checkpointer == nil {
		return
	}
	c.mu.Lock()
	data, err := c.state.Encode()
	round := c.state.Round
	c.mu.Unlock()
	if err == nil {
		err = m.opts.Checkpointer.Put(c.id, data)
	}
	if err != nil {
		logger.Error("campaign checkpoint", "round", round, "error", err)
		return
	}
	logger.Debug("campaign checkpointed", "round", round, "bytes", len(data))
}

// view snapshots the instance.
func (c *instance) view(includeFindings bool) View {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.state
	v := View{
		ID:           c.id,
		Spec:         st.Spec,
		Status:       c.status,
		Error:        c.errMsg,
		Rounds:       st.Round,
		Execs:        st.Execs,
		TotalSteps:   st.TotalSteps,
		CorpusSize:   st.Corpus.Len(),
		CorpusDigest: st.Corpus.Digest(),
		CoverageSize: len(st.Coverage),
		FindingsSeen: st.FindingsSeen,
		Started:      c.started,
	}
	if elapsed := time.Since(c.procStart).Seconds(); elapsed > 0 && c.procExecs > 0 {
		v.ExecsPerSec = float64(c.procExecs) / elapsed
	}
	if st.Spec.BatchSize > 0 {
		v.NewCoverageRate = float64(c.lastNewDigests) / float64(st.Spec.BatchSize)
	}
	if includeFindings {
		v.Findings = append([]Finding(nil), st.Findings...)
	}
	return v
}
