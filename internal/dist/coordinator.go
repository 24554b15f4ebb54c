package dist

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"time"

	"jayanti98/internal/jobs"
	"jayanti98/internal/obs"
)

// The coordinator's rejection reasons, surfaced to workers as HTTP
// status codes (http.go) so a worker can tell "retry the upload" from
// "abandon the shard".
var (
	// ErrUnknownShard means the shard ID names nothing the coordinator is
	// tracking — the job finished, was canceled, or never existed.
	ErrUnknownShard = errors.New("dist: unknown shard")
	// ErrLeaseLost means the caller's lease token is no longer the
	// shard's current lease: the lease expired and the shard was handed
	// to another worker (or the shard already completed).
	ErrLeaseLost = errors.New("dist: lease lost")
	// ErrHashMismatch means the uploaded payload does not hash to the
	// content hash the worker claimed — a corrupt upload, rejected so the
	// merge never sees it. The lease survives; the worker retries.
	ErrHashMismatch = errors.New("dist: payload hash mismatch")
)

// Options configures a Coordinator.
type Options struct {
	// LeaseTTL is how long a shard lease lives without a heartbeat
	// before the shard is re-leased to another worker (≤ 0: 15s).
	LeaseTTL time.Duration
	// MaxShards bounds the shards one job is split into (≤ 0: 8). A job
	// never gets more shards than coordinates.
	MaxShards int
	// ActiveWindow is how recently a worker must have talked to the
	// coordinator (lease poll, heartbeat, or upload) to count as part of
	// the fleet (≤ 0: 4 × LeaseTTL). With no active workers a new job is
	// declined up front — and a job whose whole fleet vanished mid-run is
	// abandoned — so the scheduler falls back to local execution.
	ActiveWindow time.Duration
	// Obs is the metrics registry (nil: the process obs.Default).
	Obs *obs.Registry
	// Logger receives shard-lifecycle lines (nil: discard).
	Logger *slog.Logger
}

// shardState is one shard's place in the lease protocol.
type shardState int

const (
	shardPending shardState = iota // waiting to be leased
	shardLeased                    // owned by a worker, deadline ticking
	shardDone                      // payload accepted
)

// shard is the coordinator's record of one work unit.
type shard struct {
	job   *distJob
	index int
	rng   Range

	state    shardState
	lease    int64 // current lease token; stale tokens are rejected
	worker   string
	deadline time.Time
	leasedAt time.Time
	releases int // times a lease expired and the shard went back in the queue
	payload  []byte
}

// id is the shard's wire identity: "<jobID>.<index>".
func (s *shard) id() string { return s.job.id + "." + strconv.Itoa(s.index) }

// distJob is one spec being executed across the fleet.
type distJob struct {
	id        string
	spec      *jobs.Spec
	shards    []*shard
	remaining int
	done      chan struct{} // closed when the last shard result is accepted
	dropped   chan struct{} // closed when dropLocked gave the job up
	reason    string        // why it was dropped, set before dropped closes
	progress  *jobs.Progress
}

// Grant is a lease offer: everything a worker needs to execute one shard
// and report back.
type Grant struct {
	ShardID string
	Lease   int64
	TTL     time.Duration
	Spec    *jobs.Spec
	Range   Range
}

// Coordinator owns the shard ledger: it partitions jobs handed over by
// the scheduler (it implements jobs.Runner), leases shards to polling
// workers, re-leases the shards of workers that stop heartbeating,
// verifies uploaded payloads by content hash, and merges accepted shards
// index-ordered into the job result.
type Coordinator struct {
	opts      Options
	now       func() time.Time // test seam
	maxResult int64            // result upload limit; maxResultBytes outside tests

	mu       sync.Mutex
	jobs     map[string]*distJob
	byID     map[string]*shard // shard wire ID → shard, for the HTTP layer
	pending  []*shard          // FIFO of leasable shards
	workers  map[string]time.Time
	leaseSeq int64

	logger *slog.Logger
	met    struct {
		distributed, fallback       *obs.Counter
		leased, completed, released *obs.Counter
		rejected                    *obs.Counter
		shardSeconds                *obs.Histogram
	}
}

// NewCoordinator builds a coordinator and registers its metrics.
func NewCoordinator(opts Options) *Coordinator {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 15 * time.Second
	}
	if opts.MaxShards <= 0 {
		opts.MaxShards = 8
	}
	if opts.ActiveWindow <= 0 {
		opts.ActiveWindow = 4 * opts.LeaseTTL
	}
	c := &Coordinator{
		opts:      opts,
		now:       time.Now,
		maxResult: maxResultBytes,
		jobs:      make(map[string]*distJob),
		byID:      make(map[string]*shard),
		workers:   make(map[string]time.Time),
		logger:    opts.Logger,
	}
	if c.logger == nil {
		c.logger = obs.NopLogger()
	}
	r := opts.Obs
	if r == nil {
		r = obs.Default()
	}
	c.met.distributed = r.Counter("dist_jobs_distributed_total", "Jobs executed across the worker fleet.", nil)
	c.met.fallback = r.Counter("dist_jobs_fallback_total", "Jobs handed back to local execution (no active workers, or distribution abandoned).", nil)
	c.met.leased = r.Counter("dist_shards_leased_total", "Shard leases granted (re-leases included).", nil)
	c.met.completed = r.Counter("dist_shards_completed_total", "Shard results accepted after hash verification.", nil)
	c.met.released = r.Counter("dist_shards_released_total", "Leases expired and re-queued (worker crashed or stalled).", nil)
	c.met.rejected = r.Counter("dist_results_rejected_total", "Shard uploads rejected (stale lease, hash mismatch, or over the size limit).", nil)
	c.met.shardSeconds = r.Histogram("dist_shard_duration_seconds", "Lease-to-accept wall clock of completed shards.", nil, nil)
	r.GaugeFunc("dist_workers_active", "Workers seen within the active window.", nil, func() float64 {
		return float64(c.ActiveWorkers())
	})
	r.GaugeFunc("dist_shards_pending", "Shards queued for lease.", nil, func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.pending))
	})
	return c
}

// ActiveWorkers counts workers that have talked to the coordinator
// within the active window.
func (c *Coordinator) ActiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.activeWorkersLocked()
}

func (c *Coordinator) activeWorkersLocked() int {
	cutoff := c.now().Add(-c.opts.ActiveWindow)
	n := 0
	for _, last := range c.workers {
		if last.After(cutoff) {
			n++
		}
	}
	return n
}

// Run implements jobs.Runner: partition, enqueue, wait for the fleet,
// merge. It declines (handled=false) when the spec is not shardable or
// no workers are active — including when every worker vanishes mid-run,
// a shard's result is refused as too large (resultTooLarge), a shard's
// lease expires more than maxShardReleases times (expireLocked), or the
// accepted parts do not merge. Then the partial shard results are
// discarded and the scheduler recomputes locally (determinism makes the
// recomputation byte-identical, so abandoning is always safe).
func (c *Coordinator) Run(ctx context.Context, id string, spec *jobs.Spec, p *jobs.Progress) ([]byte, bool, error) {
	n, ok := spec.Coords()
	if !ok || n == 0 {
		return nil, false, nil
	}
	ranges := Partition(n, c.opts.MaxShards)

	c.mu.Lock()
	if c.activeWorkersLocked() == 0 {
		c.mu.Unlock()
		c.met.fallback.Inc()
		c.logger.Debug("no active workers; declining job", "job_id", obs.ShortID(id))
		return nil, false, nil
	}
	if _, exists := c.jobs[id]; exists {
		// The scheduler singleflights per content hash, so a duplicate
		// means a caller bypassed it; decline rather than double-track.
		c.mu.Unlock()
		return nil, false, nil
	}
	j := &distJob{
		id:        id,
		spec:      spec,
		remaining: len(ranges),
		done:      make(chan struct{}),
		dropped:   make(chan struct{}),
		progress:  p,
	}
	for i, r := range ranges {
		s := &shard{job: j, index: i, rng: r}
		j.shards = append(j.shards, s)
		c.byID[s.id()] = s
		c.pending = append(c.pending, s)
	}
	c.jobs[id] = j
	c.mu.Unlock()

	ctx, span := obs.StartSpan(ctx, "dist "+spec.Kind)
	span.SetAttr("job_id", obs.ShortID(id))
	span.SetAttr("shards", strconv.Itoa(len(ranges)))
	defer span.End()
	p.Set("shards", 0, len(ranges))
	c.met.distributed.Inc()
	c.logger.Info("job distributed", "job_id", obs.ShortID(id), "shards", len(ranges), "coords", n)

	tick := c.opts.LeaseTTL / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()

	for {
		select {
		case <-j.done:
			c.remove(j)
			lens := make([]int, len(j.shards))
			parts := make([][]byte, len(j.shards))
			for i, s := range j.shards {
				lens[i], parts[i] = s.rng.Len(), s.payload
			}
			merged, err := jobs.MergeParts(spec, lens, parts)
			if err != nil {
				// The parts passed their hash checks, so a worker sent
				// these bytes; the job's result is not theirs to decide.
				c.met.fallback.Inc()
				span.SetAttr("abandoned", "parts do not merge")
				c.logger.Warn("shard parts do not merge; abandoning distribution",
					"job_id", obs.ShortID(id), "error", err.Error())
				return nil, false, nil
			}
			return merged, true, nil
		case <-j.dropped: // dropLocked already removed the job
			c.met.fallback.Inc()
			span.SetAttr("abandoned", j.reason)
			c.logger.Warn("abandoning distribution", "job_id", obs.ShortID(id), "reason", j.reason)
			return nil, false, nil
		case <-ctx.Done():
			c.remove(j)
			span.SetAttr("error", ctx.Err().Error())
			return nil, true, ctx.Err()
		case <-ticker.C:
			c.mu.Lock()
			c.expireLocked()
			fleetGone := c.activeWorkersLocked() == 0
			c.mu.Unlock()
			if fleetGone {
				c.remove(j)
				c.met.fallback.Inc()
				span.SetAttr("abandoned", "fleet lost")
				c.logger.Warn("fleet lost mid-run; abandoning distribution", "job_id", obs.ShortID(id))
				return nil, false, nil
			}
		}
	}
}

// remove deregisters a job: its shards stop being leasable and late
// results for them answer ErrUnknownShard. Idempotent.
func (c *Coordinator) remove(j *distJob) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.removeLocked(j)
}

func (c *Coordinator) removeLocked(j *distJob) {
	if _, ok := c.jobs[j.id]; !ok {
		return
	}
	delete(c.jobs, j.id)
	for _, s := range j.shards {
		delete(c.byID, s.id())
	}
	kept := c.pending[:0]
	for _, s := range c.pending {
		if s.job != j {
			kept = append(kept, s)
		}
	}
	c.pending = kept
}

// dropLocked takes j off the ledger (no further shard of it is leased,
// and late results for it answer ErrUnknownShard) and wakes its Run,
// which declines so the scheduler executes the job locally. Dropping a
// job that is no longer on the ledger changes nothing.
func (c *Coordinator) dropLocked(j *distJob, reason string) {
	if _, ok := c.jobs[j.id]; !ok {
		return
	}
	c.removeLocked(j)
	j.reason = reason
	close(j.dropped)
}

// maxShardReleases caps how often one shard goes back in the queue. A
// shard whose execution kills or hangs every worker that leases it (a
// poison shard) would otherwise be leased forever and its job never end;
// the expiry past the cap drops the job instead, and it runs locally.
const maxShardReleases = 3

// expireLocked re-queues every leased shard whose deadline has passed, or
// drops its job if the shard has been re-queued maxShardReleases times.
func (c *Coordinator) expireLocked() {
	now := c.now()
	for _, s := range c.byID {
		if s.state != shardLeased || !s.deadline.Before(now) {
			continue
		}
		if s.releases == maxShardReleases {
			c.logger.Warn("lease expired past the re-lease cap; dropping job",
				"shard", s.id(), "worker", s.worker, "releases", s.releases)
			c.dropLocked(s.job, "shard re-leased too often")
			continue
		}
		s.state = shardPending
		s.releases++
		c.pending = append(c.pending, s)
		c.met.released.Inc()
		c.logger.Warn("lease expired; shard re-queued",
			"shard", s.id(), "worker", s.worker, "releases", s.releases)
	}
}

// Lease hands the next pending shard to the worker, or returns nil when
// nothing is leasable. Every call — empty-handed or not — refreshes the
// worker's liveness, which is how a fleet "registers": polling.
func (c *Coordinator) Lease(worker string) *Grant {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.workers[worker] = now
	c.expireLocked()
	if len(c.pending) == 0 {
		return nil
	}
	s := c.pending[0]
	c.pending = c.pending[1:]
	c.leaseSeq++
	s.state = shardLeased
	s.lease = c.leaseSeq
	s.worker = worker
	s.leasedAt = now
	s.deadline = now.Add(c.opts.LeaseTTL)
	c.met.leased.Inc()
	c.logger.Info("shard leased", "shard", s.id(), "worker", worker, "lease", s.lease,
		"lo", s.rng.Lo, "hi", s.rng.Hi)
	return &Grant{
		ShardID: s.id(),
		Lease:   s.lease,
		TTL:     c.opts.LeaseTTL,
		Spec:    s.job.spec,
		Range:   s.rng,
	}
}

// Heartbeat extends the lease deadline. A heartbeat carrying a stale
// lease token gets ErrLeaseLost — the signal for the worker to abandon
// the shard, because it has been re-leased elsewhere.
func (c *Coordinator) Heartbeat(shardID string, lease int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.byID[shardID]
	if !ok {
		return ErrUnknownShard
	}
	if s.state != shardLeased || s.lease != lease {
		return ErrLeaseLost
	}
	c.workers[s.worker] = c.now()
	s.deadline = c.now().Add(c.opts.LeaseTTL)
	return nil
}

// HashPayload returns the content hash the result protocol uses:
// lowercase hex SHA-256 of the payload bytes.
func HashPayload(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// Result accepts one shard's payload: the lease must be current and the
// payload must hash to the claimed content hash. Accepting the last
// outstanding shard completes the job. A duplicate upload of a completed
// shard is acknowledged without effect (idempotent retries).
func (c *Coordinator) Result(shardID string, lease int64, hash string, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.byID[shardID]
	if !ok {
		return ErrUnknownShard
	}
	if s.state == shardDone {
		return nil
	}
	if s.state != shardLeased || s.lease != lease {
		c.met.rejected.Inc()
		return ErrLeaseLost
	}
	c.workers[s.worker] = c.now()
	if HashPayload(payload) != hash {
		c.met.rejected.Inc()
		c.logger.Warn("shard payload rejected: hash mismatch", "shard", shardID, "worker", s.worker)
		return ErrHashMismatch
	}
	s.state = shardDone
	s.payload = payload
	j := s.job
	j.remaining--
	c.met.completed.Inc()
	c.met.shardSeconds.Observe(c.now().Sub(s.leasedAt).Seconds())
	j.progress.Set("shards", len(j.shards)-j.remaining, len(j.shards))
	c.logger.Info("shard completed", "shard", shardID, "worker", s.worker,
		"done", len(j.shards)-j.remaining, "total", len(j.shards))
	if j.remaining == 0 {
		close(j.done)
	}
	return nil
}

// resultTooLarge records that an upload for shardID was refused for
// exceeding the result limit. A shard's payload is a function of the spec
// and range alone, so every worker would upload the same bytes and be
// refused again: rather than let the lease expire and the shard be
// re-leased, the job is dropped at once (dropLocked). Uploads for shards
// the coordinator does not track, and for jobs whose every shard is
// already accepted, change nothing.
func (c *Coordinator) resultTooLarge(shardID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.byID[shardID]
	if !ok || s.job.remaining == 0 {
		return
	}
	c.met.rejected.Inc()
	c.logger.Warn("shard payload rejected: over the upload limit", "shard", shardID, "limit", c.maxResult)
	c.dropLocked(s.job, "result too large")
}

// JobStats is one distributed job's shard ledger in summary form.
type JobStats struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Shards int    `json:"shards"`
	Done   int    `json:"done"`
	Leased int    `json:"leased"`
}

// Stats is the coordinator snapshot GET /v1/shards serves.
type Stats struct {
	ActiveWorkers int        `json:"activeWorkers"`
	PendingShards int        `json:"pendingShards"`
	Jobs          []JobStats `json:"jobs"`
}

// Snapshot summarizes the ledger for the introspection endpoint.
func (c *Coordinator) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		ActiveWorkers: c.activeWorkersLocked(),
		PendingShards: len(c.pending),
		Jobs:          []JobStats{},
	}
	for _, j := range c.jobs {
		js := JobStats{ID: j.id, Kind: j.spec.Kind, Shards: len(j.shards)}
		for _, s := range j.shards {
			switch s.state {
			case shardDone:
				js.Done++
			case shardLeased:
				js.Leased++
			}
		}
		st.Jobs = append(st.Jobs, js)
	}
	sort.Slice(st.Jobs, func(i, k int) bool { return st.Jobs[i].ID < st.Jobs[k].ID })
	return st
}

var _ jobs.Runner = (*Coordinator)(nil)

// String identifies the coordinator in logs.
func (c *Coordinator) String() string {
	return fmt.Sprintf("dist.Coordinator(ttl=%s, maxShards=%d)", c.opts.LeaseTTL, c.opts.MaxShards)
}
