package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"jayanti98/internal/jobs"
	"jayanti98/internal/obs"
	"jayanti98/internal/sweep"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Server is the coordinator's base URL (e.g. "http://127.0.0.1:8080").
	Server string
	// ID names the worker in leases and logs. Empty: "<hostname>-<pid>".
	ID string
	// APIKey authenticates the worker against a coordinator running with
	// tenant auth (-tenants); sent as "Authorization: Bearer <key>".
	// Empty: no credential (open coordinators).
	APIKey string
	// Parallel bounds the goroutines a shard runs on (sweep.Workers
	// semantics; ≤ 0: one per CPU).
	Parallel int
	// MaxRetries is the consecutive transport-failure budget: that many
	// failed polls or uploads in a row and Run gives up (≤ 0: 8). Any
	// successful exchange resets the count.
	MaxRetries int
	// BackoffBase is the first retry/idle delay (≤ 0: 100ms).
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff (≤ 0: 5s).
	BackoffMax time.Duration
	// Logger receives the worker's lifecycle lines (nil: discard).
	Logger *slog.Logger
	// Obs is the metrics registry (nil: the process obs.Default).
	Obs *obs.Registry
}

// Worker is the pull side of the shard protocol: poll the coordinator
// with jittered exponential backoff, run each granted range with
// jobs.RunPart, stream heartbeats while it runs, and upload the
// content-hashed part.
type Worker struct {
	opts   WorkerOptions
	client *http.Client
	logger *slog.Logger
	rng    *rand.Rand // backoff jitter; seeded from the worker ID
	rngMu  sync.Mutex

	met struct {
		polls, granted, executed, failed, uploads *obs.Counter
	}
}

// NewWorker validates the options and builds a worker.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Server == "" {
		return nil, errors.New("dist: worker needs a coordinator URL")
	}
	if opts.ID == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		opts.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 8
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 100 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 5 * time.Second
	}
	w := &Worker{
		opts:   opts,
		client: &http.Client{Timeout: 30 * time.Second},
		logger: opts.Logger,
		// Jitter only decorrelates poll times across the fleet; seeding
		// it from the worker ID keeps the process free of wall-clock
		// seeded RNGs without correlating two workers' backoff.
		rng: sweep.NewRand(sweep.Seed("dist/worker", opts.ID, 0, 0)),
	}
	if w.logger == nil {
		w.logger = obs.NopLogger()
	}
	w.logger = w.logger.With("worker", opts.ID)
	r := opts.Obs
	if r == nil {
		r = obs.Default()
	}
	w.met.polls = r.Counter("worker_polls_total", "Lease polls sent to the coordinator.", nil)
	w.met.granted = r.Counter("worker_shards_granted_total", "Leases granted to this worker.", nil)
	w.met.executed = r.Counter("worker_shards_executed_total", "Shards executed and uploaded.", nil)
	w.met.failed = r.Counter("worker_shards_failed_total", "Shards abandoned (lease lost, execution error, or upload failure).", nil)
	w.met.uploads = r.Counter("worker_upload_retries_total", "Result uploads retried after a transport failure.", nil)
	return w, nil
}

// ID returns the worker's fleet identity.
func (w *Worker) ID() string { return w.opts.ID }

// Run polls until ctx is done (returning nil — the clean shutdown) or
// the consecutive-failure budget is exhausted (returning the last
// transport error). Idle polls back off exponentially with jitter up to
// BackoffMax; any grant resets the backoff.
func (w *Worker) Run(ctx context.Context) error {
	delay := w.opts.BackoffBase
	failures := 0
	for {
		if ctx.Err() != nil {
			return nil
		}
		grant, err := w.lease(ctx)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return nil
			}
			failures++
			w.logger.Warn("lease poll failed", "error", err.Error(), "failures", failures)
			if failures > w.opts.MaxRetries {
				return fmt.Errorf("dist: worker %s: %d consecutive failures: %w", w.opts.ID, failures, err)
			}
			if !w.sleep(ctx, delay) {
				return nil
			}
			delay = w.nextDelay(delay)
		case grant == nil:
			failures = 0
			if !w.sleep(ctx, delay) {
				return nil
			}
			delay = w.nextDelay(delay)
		default:
			failures = 0
			delay = w.opts.BackoffBase
			w.met.granted.Inc()
			if err := w.execute(ctx, grant); err != nil {
				// Execution/upload problems abandon the shard — the lease
				// expires and another worker picks it up — but only a
				// transport-dead coordinator stops the worker, via the
				// poll failure budget above.
				w.met.failed.Inc()
				w.logger.Warn("shard abandoned", "shard", grant.ShardID, "error", err.Error())
			}
		}
	}
}

// nextDelay doubles the backoff up to the cap and jitters it into
// [d/2, d) so a fleet of idle workers spreads its polls.
func (w *Worker) nextDelay(d time.Duration) time.Duration {
	d *= 2
	if d > w.opts.BackoffMax {
		d = w.opts.BackoffMax
	}
	return d
}

func (w *Worker) jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	w.rngMu.Lock()
	defer w.rngMu.Unlock()
	return d/2 + time.Duration(w.rng.Int63n(int64(d/2)))
}

// sleep waits the jittered delay; false means ctx ended first.
func (w *Worker) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(w.jitter(d))
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// lease polls the coordinator once. A nil grant with nil error means no
// work is available.
func (w *Worker) lease(ctx context.Context) (*LeaseResponse, error) {
	w.met.polls.Inc()
	var grant LeaseResponse
	status, err := w.post(ctx, "/v1/shards/lease", LeaseRequest{Worker: w.opts.ID}, &grant)
	if err != nil {
		return nil, err
	}
	switch status {
	case http.StatusOK:
		return &grant, nil
	case http.StatusNoContent:
		return nil, nil
	default:
		return nil, fmt.Errorf("dist: lease answered %d", status)
	}
}

// execute runs one granted shard: heartbeats stream at TTL/3 while the
// coordinates execute; the payload is uploaded with its content hash
// under the retry budget. A lost lease cancels the execution mid-shard.
func (w *Worker) execute(ctx context.Context, grant *LeaseResponse) error {
	log := w.logger.With("shard", grant.ShardID, "lease", grant.Lease)
	log.Info("shard leased", "lo", grant.Range.Lo, "hi", grant.Range.Hi)

	execCtx, cancelExec := context.WithCancel(ctx)
	defer cancelExec()
	ttl := time.Duration(grant.TTLMillis) * time.Millisecond
	hbEvery := ttl / 3
	if hbEvery < time.Millisecond {
		hbEvery = time.Millisecond
	}
	var hbWG sync.WaitGroup
	hbCtx, stopHB := context.WithCancel(ctx)
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		ticker := time.NewTicker(hbEvery)
		defer ticker.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-ticker.C:
				status, err := w.post(hbCtx, "/v1/shards/"+grant.ShardID+"/heartbeat",
					HeartbeatRequest{Worker: w.opts.ID, Lease: grant.Lease}, nil)
				switch {
				case err != nil:
					// Transient transport failure: keep executing; if the
					// coordinator is really gone the lease expires there
					// and the upload below is rejected.
					log.Debug("heartbeat failed", "error", err.Error())
				case status == http.StatusConflict || status == http.StatusNotFound:
					log.Warn("lease lost; cancelling shard execution", "status", status)
					cancelExec()
					return
				}
			}
		}
	}()

	payload, execErr := jobs.RunPart(execCtx, grant.Spec, grant.Range.Lo, grant.Range.Hi, w.opts.Parallel)
	stopHB()
	hbWG.Wait()
	if execErr != nil {
		return fmt.Errorf("dist: executing shard %s: %w", grant.ShardID, execErr)
	}

	req := ResultRequest{
		Worker:  w.opts.ID,
		Lease:   grant.Lease,
		Hash:    HashPayload(payload),
		Payload: json.RawMessage(payload),
	}
	delay := w.opts.BackoffBase
	for attempt := 0; ; attempt++ {
		status, err := w.post(ctx, "/v1/shards/"+grant.ShardID+"/result", req, nil)
		switch {
		case err == nil && status == http.StatusOK:
			w.met.executed.Inc()
			log.Info("shard uploaded", "bytes", len(payload))
			return nil
		case err == nil && (status == http.StatusConflict || status == http.StatusNotFound):
			return fmt.Errorf("dist: shard %s upload rejected with %d (lease lost)", grant.ShardID, status)
		case err == nil && status == http.StatusRequestEntityTooLarge:
			// The same payload would be refused again: give the shard up.
			// The coordinator has already handed the job back to the
			// scheduler, so no other worker is sent to recompute it.
			return fmt.Errorf("dist: shard %s upload of %d bytes rejected with 413 (over the server's limit)", grant.ShardID, len(payload))
		}
		if attempt >= w.opts.MaxRetries {
			if err == nil {
				err = fmt.Errorf("status %d", status)
			}
			return fmt.Errorf("dist: uploading shard %s: %w", grant.ShardID, err)
		}
		w.met.uploads.Inc()
		if !w.sleep(ctx, delay) {
			return ctx.Err()
		}
		delay = w.nextDelay(delay)
	}
}

// post sends one JSON request and decodes a JSON body into out (when out
// is non-nil and the response carries one).
func (w *Worker) post(ctx context.Context, path string, body, out any) (int, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.Server+path, bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if w.opts.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+w.opts.APIKey)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("dist: decoding %s response: %w", path, err)
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}
