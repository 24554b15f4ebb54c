package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"jayanti98/internal/obs"
	"jayanti98/internal/tenant"
)

// Status is a job's lifecycle state.
type Status string

// The job states. A job moves queued → running → {done, failed,
// canceled}; a cache hit is born done.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// ErrQueueFull is returned by Submit when the global queue has no room;
// callers (the HTTP layer) translate it to 503.
var ErrQueueFull = errors.New("jobs: queue full")

// ErrShuttingDown is returned by Submit after Shutdown has begun.
var ErrShuttingDown = errors.New("jobs: scheduler shutting down")

// TenantBusyError is returned by SubmitAs when the tenant is at its
// queued-jobs cap. The HTTP layer translates it to 429 with a
// Retry-After header — unlike ErrQueueFull this is the tenant's own
// backlog, not server overload.
type TenantBusyError struct {
	Tenant string
	// RetryAfter is the suggested wait before retrying.
	RetryAfter time.Duration
}

func (e *TenantBusyError) Error() string {
	return fmt.Sprintf("jobs: tenant %q is at its queued-jobs cap", e.Tenant)
}

// Runner executes a spec somewhere other than the local worker pool —
// internal/dist's coordinator implements it to fan a shardable spec out
// over a fleet of lbworker processes. Run returns handled=false to
// decline the spec (not shardable, or no workers registered); the
// scheduler then executes it locally, so a missing or idle fleet never
// changes a result, only where it is computed. When handled is true the
// returned bytes (or error) are the job's outcome, and the determinism
// contract requires them to be byte-identical to the local execution of
// the same spec.
type Runner interface {
	Run(ctx context.Context, id string, spec *Spec, p *Progress) (result []byte, handled bool, err error)
}

// Options configures a Scheduler.
type Options struct {
	// Workers is the number of jobs run concurrently (≤ 0: 2).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs across
	// all tenants (≤ 0: 64). Submit fails with ErrQueueFull beyond it.
	QueueDepth int
	// JobTimeout is the per-job deadline (0: none).
	JobTimeout time.Duration
	// SweepParallel is the sweep worker count each job runs beneath it
	// (≤ 0: one per CPU). It is an execution knob, not part of job
	// identity: results are parallelism-independent by the determinism
	// contract.
	SweepParallel int
	// Cache is the result cache and journal store (nil: a fresh
	// memory-only cache). With a cache directory the scheduler journals
	// every job as <id>.job.json and replays the journal on construction,
	// so accepted work survives a process restart.
	Cache *Cache
	// Tenants supplies per-tenant fair-share weights and caps (nil: the
	// open single-tenant registry — every job runs as "default" with no
	// caps, the pre-tenancy behavior).
	Tenants *tenant.Registry
	// Dist, when non-nil, is offered every job before local execution
	// (see Runner). Like SweepParallel it is an execution knob, not part
	// of job identity: distribution may move the computation, never
	// change its bytes.
	Dist Runner
	// Obs is the metrics registry the scheduler instruments itself on
	// (nil: the process obs.Default registry). Counters, and so
	// Scheduler.Counters, are cumulative across schedulers sharing a
	// registry; the queue/running/cache readings follow the most recently
	// built scheduler, mirroring cmd/lbserver's expvar indirection.
	Obs *obs.Registry
	// Tracer receives one span per executed job, with the experiment
	// and sweep spans beneath it (nil: obs.DefaultTracer).
	Tracer *obs.Tracer
	// Logger receives the scheduler's structured job-lifecycle lines,
	// each correlated by job_id (nil: discard).
	Logger *slog.Logger
}

// job is the scheduler's mutable record of one submission.
type job struct {
	id     string
	spec   *Spec
	tenant string

	mu         sync.Mutex
	status     Status
	cached     bool
	tombstoned bool // canceled explicitly; replay must keep it canceled
	dispatched bool // popped from its tenant queue (queue counts moved)
	result     []byte
	errMsg     string
	created    time.Time
	started    time.Time
	finished   time.Time

	progress *Progress
	cancel   context.CancelFunc
	done     chan struct{} // closed on terminal status

	// journalMu makes each journal record's snapshot and write one step
	// (journalAs). Never taken while holding mu or the scheduler's mu.
	journalMu sync.Mutex
}

// JobView is an immutable snapshot of a job, the unit the HTTP layer
// serves.
type JobView struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Tenant string `json:"tenant,omitempty"`
	Spec   *Spec  `json:"spec"`
	Status Status `json:"status"`
	// Cached reports that the result was served from the result cache
	// rather than computed by this job.
	Cached   bool   `json:"cached"`
	Progress Event  `json:"progress"`
	Error    string `json:"error,omitempty"`
	// Result is the job's payload (present only when Status is done).
	Result json.RawMessage `json:"result,omitempty"`

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// Counters is a snapshot of the scheduler's expvar-able counters (the
// jobs expvar of cmd/lbserver).
type Counters struct {
	Submitted   int64 `json:"submitted"`
	Completed   int64 `json:"completed"`
	Failed      int64 `json:"failed"`
	Canceled    int64 `json:"canceled"`
	CacheServed int64 `json:"cacheServed"`
	QueueDepth  int64 `json:"queueDepth"`
	Running     int64 `json:"running"`
}

// tenantQueue is one tenant's pending backlog plus its live scheduling
// state. All fields are guarded by the scheduler's mu.
type tenantQueue struct {
	name   string
	limits tenant.Limits

	pending []*job // FIFO; canceled entries are skipped lazily at dispatch
	queued  int    // non-canceled entries in pending
	running int

	// credit is the smooth-weighted-round-robin accumulator: each
	// dispatch round every eligible tenant gains its weight, the largest
	// credit wins the slot and pays the total weight back. The scheme
	// guarantees a tenant with weight w gets at least one slot in any
	// window of ceil(totalWeight/w) dispatches — the starvation-freedom
	// bound the fair-share property test pins.
	credit int

	queuedGauge, runningGauge *obs.Gauge
}

// Scheduler runs jobs over a bounded worker pool with per-job
// cancellation, deadline, and panic isolation, de-duplicating identical
// specs in flight (two submissions of one hash share one job — the
// singleflight the content hash makes trivial) and serving repeated specs
// from the content-addressed cache.
//
// Dispatch is fair-share across tenants: each tenant has its own FIFO of
// pending jobs, and free workers pick the next job by smooth weighted
// round-robin over the tenants that have work and are under their
// running cap. Every accepted job is journaled through the cache's
// atomic-file layer (journal.go) and replayed on construction, so a
// restart re-enqueues pending work and serves finished work
// byte-identically from the result cache.
type Scheduler struct {
	opts    Options
	cache   *Cache
	tenants *tenant.Registry

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu          sync.Mutex
	cond        *sync.Cond // signaled on enqueue, job end, and drain
	jobs        map[string]*job
	tq          map[string]*tenantQueue
	queuedTotal int
	draining    bool

	running int64

	// Observability sinks (see Options.Obs/Tracer/Logger) and the
	// counter handles hot paths increment without registry lookups.
	reg    *obs.Registry
	tracer *obs.Tracer
	logger *slog.Logger
	met    struct {
		submitted, completed, failed, canceled *obs.Counter
		cacheServed, deduped, tenantBusy       *obs.Counter

		journalWrites, journalErrors    *obs.Counter
		journalReplayed, journalSkipped *obs.Counter
		journalTombstones               *obs.Counter
	}
}

// NewScheduler starts a scheduler: it replays the cache's job journal
// (re-enqueueing work a previous process life accepted but did not
// finish) and then starts the worker pool.
func NewScheduler(opts Options) (*Scheduler, error) {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	cache := opts.Cache
	if cache == nil {
		var err error
		if cache, err = NewCache(0, ""); err != nil {
			return nil, err
		}
	}
	tenants := opts.Tenants
	if tenants == nil {
		tenants = tenant.Open()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		opts:       opts,
		cache:      cache,
		tenants:    tenants,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*job),
		tq:         make(map[string]*tenantQueue),
	}
	s.cond = sync.NewCond(&s.mu)
	s.reg = opts.Obs
	if s.reg == nil {
		s.reg = obs.Default()
	}
	s.tracer = opts.Tracer
	if s.tracer == nil {
		s.tracer = obs.DefaultTracer()
	}
	s.logger = opts.Logger
	if s.logger == nil {
		s.logger = obs.NopLogger()
	}
	s.registerMetrics()
	s.replayJournal()
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// registerMetrics creates the scheduler's counter handles and points the
// registry's live readings (queue depth, running jobs, cache counters) at
// this scheduler.
func (s *Scheduler) registerMetrics() {
	r := s.reg
	s.met.submitted = r.Counter("jobs_submitted_total", "Submissions that created a job: enqueued, or answered from the result cache. A submission that joins an already-tracked job counts in jobs_dedup_inflight_total instead.", nil)
	s.met.completed = r.Counter("jobs_completed_total", "Jobs that finished successfully.", nil)
	s.met.failed = r.Counter("jobs_failed_total", "Jobs that ended in failure.", nil)
	s.met.canceled = r.Counter("jobs_canceled_total", "Jobs canceled while queued or running.", nil)
	s.met.cacheServed = r.Counter("jobs_cache_served_total", "Submissions answered with an existing result instead of new work.", nil)
	s.met.deduped = r.Counter("jobs_dedup_inflight_total", "Submissions that joined an already-tracked job for the same content hash (singleflight).", nil)
	s.met.tenantBusy = r.Counter("tenant_queue_rejections_total", "Submissions rejected 429 because the tenant was at its queued-jobs cap.", nil)
	s.met.journalWrites = r.Counter("store_journal_writes_total", "Job-journal records written through the cache's atomic-file layer.", nil)
	s.met.journalErrors = r.Counter("store_journal_errors_total", "Job-journal writes that failed (job continues in memory; durability degraded).", nil)
	s.met.journalReplayed = r.Counter("store_journal_replayed_total", "Journal records rebuilt at boot (terminal jobs restored, pending jobs re-enqueued).", nil)
	s.met.journalSkipped = r.Counter("store_journal_skipped_total", "Journal records rejected at boot (undecodable, or not matching their job ID) and skipped.", nil)
	s.met.journalTombstones = r.Counter("store_journal_tombstones_total", "Journal records tombstoned by an explicit cancel (stay canceled across restarts).", nil)
	r.GaugeFunc("jobs_queue_depth", "Jobs queued but not yet running, across all tenants.", nil, func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.queuedTotal)
	})
	r.GaugeFunc("jobs_running", "Jobs currently executing.", nil, func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.running)
	})
	r.GaugeFunc("store_journal_records", "Job-journal records currently held (memory and cache directory).", nil, func() float64 {
		return float64(len(s.cache.JobRecords.List()))
	})
	cacheReading := func(read func(CacheStats) float64) func() float64 {
		return func() float64 { return read(s.cache.Stats()) }
	}
	r.CounterFunc("jobs_cache_hits_total", "Result-cache lookups served from memory.", nil,
		cacheReading(func(st CacheStats) float64 { return float64(st.Hits) }))
	r.CounterFunc("jobs_cache_disk_hits_total", "Result-cache lookups revived from the cache directory.", nil,
		cacheReading(func(st CacheStats) float64 { return float64(st.DiskHits) }))
	r.CounterFunc("jobs_cache_misses_total", "Result-cache lookups that found nothing.", nil,
		cacheReading(func(st CacheStats) float64 { return float64(st.Misses) }))
	r.CounterFunc("jobs_cache_evictions_total", "In-memory LRU evictions (disk copies survive).", nil,
		cacheReading(func(st CacheStats) float64 { return float64(st.Evictions) }))
	r.GaugeFunc("jobs_cache_entries", "Results currently held in memory.", nil,
		cacheReading(func(st CacheStats) float64 { return float64(st.Entries) }))
}

// Cache returns the scheduler's result cache.
func (s *Scheduler) Cache() *Cache { return s.cache }

// tenantOrDefault maps the empty tenant name (pre-tenancy journal
// records, internal submitters) to the default tenant.
func tenantOrDefault(name string) string {
	if name == "" {
		return tenant.DefaultName
	}
	return name
}

// tenantQueueLocked returns (creating on first use) the tenant's queue.
// Callers hold s.mu.
func (s *Scheduler) tenantQueueLocked(name string) *tenantQueue {
	if tq, ok := s.tq[name]; ok {
		return tq
	}
	tq := &tenantQueue{
		name:   name,
		limits: s.tenants.LimitsFor(name),
		queuedGauge: s.reg.Gauge("tenant_jobs_queued", "Jobs queued but not yet running, by tenant.",
			obs.Labels{"tenant": name}),
		runningGauge: s.reg.Gauge("tenant_jobs_running", "Jobs currently executing, by tenant.",
			obs.Labels{"tenant": name}),
	}
	s.tq[name] = tq
	return tq
}

// enqueueLocked appends j to its tenant's pending queue and wakes one
// worker. Callers hold s.mu and have already enforced the caps (journal
// replay deliberately bypasses them).
func (s *Scheduler) enqueueLocked(j *job) {
	tq := s.tenantQueueLocked(j.tenant)
	tq.pending = append(tq.pending, j)
	tq.queued++
	s.queuedTotal++
	tq.queuedGauge.Set(int64(tq.queued))
	s.cond.Signal()
}

// Submit runs the spec as the default tenant — the single-tenant entry
// point internal submitters (campaign rounds) and tests use. See
// SubmitAs.
func (s *Scheduler) Submit(spec *Spec) (JobView, bool, error) {
	return s.SubmitAs(tenant.DefaultName, spec)
}

// SubmitAs normalizes, validates, and hashes spec, then returns the job
// for that hash: the already-tracked job if one is queued, running, or
// done (idempotent submission, singleflight de-duplication); a synthetic
// done job if the cache holds the result; otherwise a freshly enqueued
// job owned by tenantName. A previously failed or canceled hash is
// resubmitted fresh — a canceled run never poisons the cache or blocks a
// retry.
//
// Tenancy never fragments the cache: the job ID is the content hash of
// the spec alone, so two tenants submitting one spec share one job and
// one result. The first submitter's tenant owns the job for fair-share
// accounting.
//
// The returned bool reports whether this call enqueued new work. In the
// returned view, Cached is true whenever the submission was answered with
// an existing result (from the cache or from an already-completed job)
// rather than by computing anything.
func (s *Scheduler) SubmitAs(tenantName string, spec *Spec) (JobView, bool, error) {
	id, err := spec.ID()
	if err != nil {
		return JobView{}, false, err
	}
	tenantName = tenantOrDefault(tenantName)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return JobView{}, false, ErrShuttingDown
	}
	if j, ok := s.jobs[id]; ok {
		view := j.snapshot()
		if !(view.Status == StatusFailed || view.Status == StatusCanceled) {
			if view.Status == StatusDone {
				view.Cached = true
				s.met.cacheServed.Inc()
			}
			s.mu.Unlock()
			s.met.deduped.Inc()
			s.jobLogger(id, spec.Kind).Debug("submission joined tracked job", "status", string(view.Status))
			return view, false, nil
		}
		// fall through: replace the failed/canceled record
	}

	j := &job{
		id:       id,
		spec:     spec,
		tenant:   tenantName,
		status:   StatusQueued,
		created:  time.Now(),
		progress: NewProgress(),
		done:     make(chan struct{}),
	}

	if result, ok := s.cache.Results.Get(id); ok {
		now := time.Now()
		j.status = StatusDone
		j.cached = true
		j.result = result
		j.started, j.finished = now, now
		j.progress.Set("cached", 1, 1)
		j.progress.Close()
		close(j.done)
		s.jobs[id] = j
		s.pruneLocked()
		s.mu.Unlock()
		s.met.submitted.Inc()
		s.met.cacheServed.Inc()
		s.journal(j)
		s.jobLogger(id, spec.Kind).Debug("submission served from result cache")
		return j.snapshot(), false, nil
	}

	if s.queuedTotal >= s.opts.QueueDepth {
		s.mu.Unlock()
		s.jobLogger(id, spec.Kind).Warn("submission rejected: queue full")
		return JobView{}, false, ErrQueueFull
	}
	tq := s.tenantQueueLocked(tenantName)
	if tq.limits.MaxQueued > 0 && tq.queued >= tq.limits.MaxQueued {
		s.mu.Unlock()
		s.met.tenantBusy.Inc()
		s.jobLogger(id, spec.Kind).Warn("submission rejected: tenant queued cap", "tenant", tenantName)
		return JobView{}, false, &TenantBusyError{Tenant: tenantName, RetryAfter: time.Second}
	}
	s.enqueueLocked(j)
	s.jobs[id] = j
	s.pruneLocked()
	s.mu.Unlock()
	s.met.submitted.Inc()
	s.reg.Counter("tenant_jobs_submitted_total", "Jobs enqueued, by owning tenant.",
		obs.Labels{"tenant": tenantName}).Inc()
	s.journal(j)
	s.jobLogger(id, spec.Kind).Info("job queued", "tenant", tenantName)
	return j.snapshot(), true, nil
}

// maxTrackedJobs bounds the scheduler's job map. The map used to grow
// forever, which was invisible for one-shot experiment servers but is a
// real leak under campaigns, which submit one round job every few seconds
// indefinitely. Beyond the bound the oldest terminal jobs are forgotten —
// their results stay in the content-addressed cache, so a forgotten ID
// resubmitted later is still served byte-identically.
const maxTrackedJobs = 1024

// pruneLocked drops the oldest terminal jobs (and their journal records)
// beyond maxTrackedJobs. Callers hold s.mu. Queued and running jobs are
// never pruned.
func (s *Scheduler) pruneLocked() {
	if len(s.jobs) <= maxTrackedJobs {
		return
	}
	type aged struct {
		id      string
		created time.Time
	}
	var terminal []aged
	for id, j := range s.jobs {
		j.mu.Lock()
		if j.status.Terminal() {
			terminal = append(terminal, aged{id: id, created: j.created})
		}
		j.mu.Unlock()
	}
	sort.Slice(terminal, func(i, k int) bool {
		if !terminal[i].created.Equal(terminal[k].created) {
			return terminal[i].created.Before(terminal[k].created)
		}
		return terminal[i].id < terminal[k].id
	})
	for _, t := range terminal {
		if len(s.jobs) <= maxTrackedJobs {
			break
		}
		delete(s.jobs, t.id)
		s.cache.JobRecords.Delete(t.id)
	}
}

// jobLogger is the scheduler's logger with the job correlation attrs
// every lifecycle line carries.
func (s *Scheduler) jobLogger(id, kind string) *slog.Logger {
	return s.logger.With("job_id", obs.ShortID(id), "kind", kind)
}

// List snapshots every tracked job, oldest submission first (ties broken
// by ID so the order is deterministic).
func (s *Scheduler) List() []JobView {
	s.mu.Lock()
	tracked := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		tracked = append(tracked, j)
	}
	s.mu.Unlock()
	views := make([]JobView, 0, len(tracked))
	for _, j := range tracked {
		views = append(views, j.snapshot())
	}
	sort.Slice(views, func(i, k int) bool {
		if !views[i].Created.Equal(views[k].Created) {
			return views[i].Created.Before(views[k].Created)
		}
		return views[i].ID < views[k].ID
	})
	return views
}

// Get returns a snapshot of the job with the given ID.
func (s *Scheduler) Get(id string) (JobView, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, false
	}
	return j.snapshot(), true
}

// Subscribe attaches to a job's progress stream. The returned snapshot is
// the state as of subscription; the channel delivers subsequent events
// and closes when the job reaches a terminal state.
func (s *Scheduler) Subscribe(id string) (JobView, <-chan Event, func(), bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, nil, nil, false
	}
	ch, cancel := j.progress.Subscribe()
	return j.snapshot(), ch, cancel, true
}

// Cancel requests cancellation of a queued or running job. Cancelling a
// queued job is immediate; a running job's context is cancelled and the
// job reports canceled once its workload unwinds. Either way the job is
// tombstoned in the journal, so an explicit cancel survives a restart —
// replay keeps the job canceled instead of re-enqueueing it. Cancel
// returns false for unknown IDs and does nothing to terminal jobs.
func (s *Scheduler) Cancel(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return false
	}
	j.mu.Lock()
	switch j.status {
	case StatusQueued:
		j.status = StatusCanceled
		j.tombstoned = true
		j.finished = time.Now()
		wasDispatched := j.dispatched
		cancelFn := j.cancel
		j.mu.Unlock()
		if cancelFn != nil {
			cancelFn()
		}
		j.progress.Set("canceled", 0, 0)
		j.progress.Close()
		close(j.done)
		s.mu.Lock()
		// The entry stays in its tenant's pending slice (dispatch skips
		// it); only the live counts move. A job already handed to a
		// worker had its counts moved by dispatch — runJob will observe
		// the canceled status and return the slot.
		if tq, ok := s.tq[j.tenant]; ok && !wasDispatched {
			tq.queued--
			s.queuedTotal--
			tq.queuedGauge.Set(int64(tq.queued))
		}
		s.mu.Unlock()
		s.met.canceled.Inc()
		s.met.journalTombstones.Inc()
		s.journal(j)
		s.jobLogger(j.id, j.spec.Kind).Info("job canceled while queued")
		return true
	case StatusRunning:
		j.tombstoned = true
		cancelFn := j.cancel
		j.mu.Unlock()
		if cancelFn != nil {
			cancelFn()
		}
		// Journal the tombstone now, not when the job unwinds: a SIGKILL
		// between this cancel and the unwind must not resurrect the job.
		s.met.journalTombstones.Inc()
		s.journal(j)
		return true
	default:
		j.mu.Unlock()
		return true
	}
}

// Wait blocks until the job reaches a terminal state or ctx is done, and
// returns the final snapshot.
func (s *Scheduler) Wait(ctx context.Context, id string) (JobView, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, fmt.Errorf("jobs: unknown job %q", id)
	}
	select {
	case <-j.done:
		return j.snapshot(), nil
	case <-ctx.Done():
		return j.snapshot(), ctx.Err()
	}
}

// Counters snapshots the scheduler counters: the job counters of the
// metrics registry (Options.Obs) and the live queue depth and running
// count.
func (s *Scheduler) Counters() Counters {
	s.mu.Lock()
	queued, running := int64(s.queuedTotal), s.running
	s.mu.Unlock()
	return Counters{
		Submitted:   s.met.submitted.Value(),
		Completed:   s.met.completed.Value(),
		Failed:      s.met.failed.Value(),
		Canceled:    s.met.canceled.Value(),
		CacheServed: s.met.cacheServed.Value(),
		QueueDepth:  queued,
		Running:     running,
	}
}

// Shutdown stops accepting submissions, cancels every queued and running
// job, and waits for the workers to drain — at most until ctx is done.
// Jobs canceled purely by the drain keep queued journal records, so the
// next process life resumes them; explicitly canceled jobs stay
// canceled (tombstones).
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.baseCancel() // cancels the context under every running job
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: shutdown: %w", ctx.Err())
	}
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		j := s.next()
		if j == nil {
			return
		}
		s.runJob(j)
	}
	// Drain path: next keeps handing out the remaining queued jobs after
	// Shutdown (the base context is already done, so runJob unwinds each
	// immediately as canceled) and returns nil once the backlog is empty.
}

// next blocks until a job is dispatchable and returns it, or returns nil
// when the scheduler is draining and the backlog is empty. Dispatch
// increments the running counts; runJob's completion path decrements
// them.
func (s *Scheduler) next() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if j := s.dispatchLocked(); j != nil {
			return j
		}
		if s.draining {
			return nil
		}
		s.cond.Wait()
	}
}

// dispatchLocked picks the next job by smooth weighted round-robin over
// the tenants that have pending work and are under their running cap
// (caps are ignored while draining — every queued job must still pass
// through a worker to be canceled and journaled). Callers hold s.mu.
func (s *Scheduler) dispatchLocked() *job {
	var eligible []*tenantQueue
	for _, tq := range s.tq {
		if tq.queued == 0 {
			continue
		}
		if !s.draining && tq.limits.MaxRunning > 0 && tq.running >= tq.limits.MaxRunning {
			continue
		}
		eligible = append(eligible, tq)
	}
	if len(eligible) == 0 {
		return nil
	}
	// Deterministic credit accounting: tenants gain credit in name order
	// and the largest credit wins (ties to the lexicographically first).
	sort.Slice(eligible, func(i, k int) bool { return eligible[i].name < eligible[k].name })
	total := 0
	for _, tq := range eligible {
		total += tq.limits.NormWeight()
	}
	var pick *tenantQueue
	for _, tq := range eligible {
		tq.credit += tq.limits.NormWeight()
		if pick == nil || tq.credit > pick.credit {
			pick = tq
		}
	}
	pick.credit -= total

	for len(pick.pending) > 0 {
		j := pick.pending[0]
		pick.pending = pick.pending[1:]
		j.mu.Lock()
		st := j.status
		if st == StatusQueued {
			j.dispatched = true
		}
		j.mu.Unlock()
		if st != StatusQueued {
			// Canceled while queued; Cancel already moved the counts.
			continue
		}
		pick.queued--
		s.queuedTotal--
		pick.running++
		s.running++
		pick.queuedGauge.Set(int64(pick.queued))
		pick.runningGauge.Set(int64(pick.running))
		return j
	}
	return nil
}

// jobEnded returns a dispatched job's slot: the worker is free and a
// capped tenant may have become eligible again.
func (s *Scheduler) jobEnded(j *job) {
	s.mu.Lock()
	s.running--
	if tq, ok := s.tq[j.tenant]; ok {
		tq.running--
		tq.runningGauge.Set(int64(tq.running))
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// runJob executes one job with cancellation, deadline, and panic
// isolation, then records the outcome (in memory and in the journal).
func (s *Scheduler) runJob(j *job) {
	defer s.jobEnded(j)
	var ctx context.Context
	var cancel context.CancelFunc
	if s.opts.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, s.opts.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	defer cancel()

	j.mu.Lock()
	if j.status != StatusQueued {
		// Cancelled while queued; nothing to run.
		j.mu.Unlock()
		return
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.cancel = cancel
	j.mu.Unlock()
	// The start is not journaled. Replay re-enqueues a running record
	// exactly like the queued one already on disk, so the write would
	// change no recovery; it would only put a file write, and a wait for
	// Submit's queued write (journalMu), into every job's run time.

	// The job's context carries the correlation ID, logger, and a root
	// span; the spec runners and the experiments registry hang their
	// phase spans beneath it, which is what /debug/traces renders as a
	// scheduler → experiment tree.
	ctx = obs.WithLogger(obs.WithJobID(ctx, j.id), s.logger)
	ctx, span := s.tracer.Start(ctx, "job "+j.spec.Kind)
	span.SetAttr("job_id", obs.ShortID(j.id))
	span.SetAttr("kind", j.spec.Kind)
	span.SetAttr("tenant", j.tenant)
	obs.Logger(ctx).Info("job started")

	result, err := s.runIsolated(ctx, j)

	j.mu.Lock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.status = StatusDone
		j.result = result
	case ctx.Err() != nil && errors.Is(err, ctx.Err()):
		// The job unwound because its context ended — cancellation or
		// deadline, never a result. Nothing is cached.
		j.status = StatusCanceled
		j.errMsg = err.Error()
	default:
		j.status = StatusFailed
		j.errMsg = err.Error()
	}
	status := j.status
	j.mu.Unlock()

	if status == StatusDone {
		// Populate the content-addressed cache; a failed persist demotes
		// the job to failed rather than caching silently-volatile state.
		// The cache write precedes the journal's "done" record, so a
		// crash between the two replays as a pending job that hits the
		// cache — never a "done" record without its bytes.
		if cerr := s.cache.Results.Put(j.id, result); cerr != nil {
			j.mu.Lock()
			j.status = StatusFailed
			j.errMsg = cerr.Error()
			j.result = nil
			status = StatusFailed
			j.mu.Unlock()
		}
	}
	s.journalTerminal(j, status)

	j.progress.Set(string(status), 0, 0)
	j.progress.Close()

	j.mu.Lock()
	elapsed := j.finished.Sub(j.started)
	errMsg := j.errMsg
	j.mu.Unlock()
	switch status {
	case StatusDone:
		s.met.completed.Inc()
	case StatusCanceled:
		s.met.canceled.Inc()
	default:
		s.met.failed.Inc()
	}
	s.reg.Histogram("job_duration_seconds", "Job wall clock from start to terminal status, by kind and outcome.",
		nil, obs.Labels{"kind": j.spec.Kind, "status": string(status)}).Observe(elapsed.Seconds())
	span.SetAttr("status", string(status))
	if errMsg != "" {
		span.SetAttr("error", errMsg)
	}
	span.End()
	logLine := obs.Logger(ctx).With("status", string(status), "duration_ms", float64(elapsed)/float64(time.Millisecond))
	if status == StatusFailed {
		logLine.Error("job finished", "error", errMsg)
	} else {
		logLine.Info("job finished")
	}

	if status == StatusDone {
		s.recordPhases(j)
	}
	// Last, so that Wait returns only after the job's counters and
	// metrics are recorded.
	close(j.done)
}

// journalTerminal writes a finished job's journal record. One special
// case: a job canceled only because the scheduler is draining (graceful
// shutdown) is journaled back as queued — the cancel was the process
// stopping, not the user changing their mind, so the next life resumes
// it. Explicit cancels are tombstoned by Cancel and stay canceled.
func (s *Scheduler) journalTerminal(j *job, status Status) {
	j.mu.Lock()
	tombstoned := j.tombstoned
	j.mu.Unlock()
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if status == StatusCanceled && !tombstoned && draining {
		asQueued := func(rec *JobRecord) {
			rec.Status = StatusQueued
			rec.Error = ""
			rec.Started, rec.Finished = nil, nil
		}
		if s.journalAs(j, asQueued) {
			s.jobLogger(j.id, j.spec.Kind).Info("drained job journaled as queued for resume")
		}
		return
	}
	s.journal(j)
}

// runSpecFn is the spec executor; tests swap it to exercise panic
// isolation and failure paths without crafting a crashing workload.
var runSpecFn = runSpec

// runIsolated runs the spec with panics converted to errors, so one
// crashing job cannot take down the worker pool. A distributed runner,
// when configured, gets first refusal; a declined spec falls through to
// the local path.
func (s *Scheduler) runIsolated(ctx context.Context, j *job) (result []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("jobs: job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	if s.opts.Dist != nil {
		result, handled, err := s.opts.Dist.Run(ctx, j.id, j.spec, j.progress)
		if handled {
			return result, err
		}
		obs.Logger(ctx).Debug("distributed runner declined; executing locally")
	}
	return runSpecFn(ctx, j.spec, j.progress, s.opts.SweepParallel)
}

// recordPhases folds a completed job's phase durations into the
// per-phase histogram on the metrics registry.
func (s *Scheduler) recordPhases(j *job) {
	for _, pd := range j.progress.Durations() {
		if pd.Phase == "queued" || Status(pd.Phase).Terminal() {
			continue
		}
		s.reg.Histogram("job_phase_duration_seconds", "Per-phase wall clock of completed jobs, by kind and phase.",
			nil, obs.Labels{"kind": j.spec.Kind, "phase": pd.Phase}).Observe(pd.Duration.Seconds())
	}
}

// snapshot builds the immutable view.
func (j *job) snapshot() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:       j.id,
		Kind:     j.spec.Kind,
		Tenant:   j.tenant,
		Spec:     j.spec,
		Status:   j.status,
		Cached:   j.cached,
		Progress: j.progress.Snapshot(),
		Error:    j.errMsg,
		Created:  j.created,
	}
	if j.status == StatusDone {
		v.Result = json.RawMessage(j.result)
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}
