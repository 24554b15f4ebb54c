// Command lbserver serves the experiment job service over HTTP: submit a
// job spec (lbreport experiments, universal-construction sweeps, schedule
// exploration), poll or stream its progress, and fetch the result. Job
// identity is the SHA-256 of the spec's canonical encoding, so repeated
// submissions of one spec share one job and are served byte-identically
// from the content-addressed result cache.
//
// The server is also the coordinator of the distributed execution
// subsystem (internal/dist): shardable jobs are split into leased work
// units that cmd/lbworker processes pull, execute, and upload; the
// merged result is byte-identical to an in-process run, and with no
// workers polling every job simply runs locally.
//
// Long-lived coverage-guided exploration campaigns (internal/campaign)
// run on top of the job service: each campaign round is submitted as a
// job (so rounds are cached, deduplicated, and distributed like any
// other work), campaign state is checkpointed into the cache directory,
// and a restarted server resumes every checkpointed campaign from its
// last corpus snapshot.
//
//	POST   /v1/jobs             submit a spec (idempotent on content hash)
//	GET    /v1/jobs/{id}        status, progress, result
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/jobs             list jobs (?status= filters)
//	GET    /v1/jobs/{id}/events live progress (Server-Sent Events; resume with Last-Event-ID)
//	GET    /v1/cache/stats      result-cache counters
//	POST   /v1/campaigns        start a campaign (idempotent on content hash)
//	GET    /v1/campaigns        list campaigns with live stats
//	GET    /v1/campaigns/{id}   one campaign's stats and findings
//	DELETE /v1/campaigns/{id}   stop a campaign (state is checkpointed)
//	POST   /v1/shards/lease     lbworker pull protocol: lease a shard
//	POST   /v1/shards/{id}/result    upload a shard payload (content-hashed)
//	POST   /v1/shards/{id}/heartbeat extend a shard lease
//	GET    /v1/shards           coordinator ledger snapshot
//	GET    /healthz             liveness
//	GET    /metrics             Prometheus text exposition (internal/obs)
//	GET    /debug/traces        recent span trees as JSON (?flat=1 for the raw list)
//	GET    /debug/pprof/        CPU/heap/goroutine profiles (net/http/pprof)
//	GET    /debug/vars          expvar metrics (job counters, cache)
//
// Every request runs through the obs middleware: per-route counters and
// latency histograms on /metrics, one span per request on /debug/traces,
// and one structured JSON log line per request (correlated by request_id;
// job lifecycle lines are correlated by job_id).
//
// With -tenants the /v1/ API is multi-tenant: requests authenticate with
// an API key ("Authorization: Bearer <key>" or "X-API-Key"), each tenant
// has a token-bucket request rate and per-tenant queued/running caps, and
// the scheduler shares workers across tenants by weighted fair-share
// round-robin instead of a single FIFO. With -cache-dir every accepted
// job is also journaled (<id>.job.json): a killed and restarted server
// re-enqueues pending work and serves finished results byte-identically.
//
// SIGINT/SIGTERM triggers a graceful shutdown: the listener stops, every
// queued and running job is cancelled, and the worker pool drains within
// -drain-timeout.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"jayanti98/internal/campaign"
	"jayanti98/internal/dist"
	"jayanti98/internal/jobs"
	"jayanti98/internal/obs"
	"jayanti98/internal/tenant"
)

type options struct {
	addr         string
	workers      int
	queueDepth   int
	jobTimeout   time.Duration
	sweepWorkers int
	cacheDir     string
	cacheEntries int
	drainTimeout time.Duration
	logLevel     slog.Level
	traceSpans   int
	dist         bool
	leaseTTL     time.Duration
	distShards   int

	findingsDir     string
	checkpointEvery int

	tenantsPath string
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("lbserver", flag.ContinueOnError)
	opts := options{}
	var logLevel string
	fs.StringVar(&opts.addr, "addr", ":8080", "listen address")
	fs.IntVar(&opts.workers, "workers", 2, "concurrent jobs")
	fs.IntVar(&opts.queueDepth, "queue", 64, "queued-job capacity (submissions beyond it get 503)")
	fs.DurationVar(&opts.jobTimeout, "job-timeout", 0, "per-job deadline (0: none)")
	fs.IntVar(&opts.sweepWorkers, "parallel", runtime.NumCPU(), "sweep workers per job")
	fs.StringVar(&opts.cacheDir, "cache-dir", "", "result-cache directory (empty: memory only)")
	fs.IntVar(&opts.cacheEntries, "cache-entries", 128, "in-memory result-cache capacity")
	fs.DurationVar(&opts.drainTimeout, "drain-timeout", 30*time.Second, "graceful-shutdown deadline")
	fs.StringVar(&logLevel, "log-level", "info", "log level: debug, info, warn, error")
	fs.IntVar(&opts.traceSpans, "trace-spans", obs.DefaultTraceCapacity, "finished spans retained for /debug/traces")
	fs.BoolVar(&opts.dist, "dist", true, "offer shardable jobs to polling lbworkers (jobs run locally when no workers poll)")
	fs.DurationVar(&opts.leaseTTL, "lease-ttl", 15*time.Second, "shard lease lifetime without a heartbeat before re-lease")
	fs.IntVar(&opts.distShards, "dist-shards", 8, "maximum shards one job is split into")
	fs.StringVar(&opts.findingsDir, "campaign-findings", "", "directory for campaign finding replay files (empty: findings only in stats)")
	fs.IntVar(&opts.checkpointEvery, "campaign-checkpoint-every", 1, "checkpoint campaign state every N rounds")
	fs.StringVar(&opts.tenantsPath, "tenants", "", "tenant config JSON: API keys, rate limits, fair-share weights (empty: open single-tenant mode)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if opts.leaseTTL <= 0 {
		return options{}, fmt.Errorf("-lease-ttl must be positive, got %s", opts.leaseTTL)
	}
	if opts.distShards < 1 {
		return options{}, fmt.Errorf("-dist-shards must be at least 1, got %d", opts.distShards)
	}
	if err := opts.logLevel.UnmarshalText([]byte(logLevel)); err != nil {
		return options{}, fmt.Errorf("-log-level: %w", err)
	}
	return opts, nil
}

// activeScheduler backs the expvar readers. expvar names are process-global
// and cannot be unpublished, so the vars indirect through this pointer
// instead of closing over one scheduler (tests build several). The obs
// registry's GaugeFunc/CounterFunc readings use the same trick internally:
// the most recently built scheduler re-registers the reader funcs.
var activeScheduler atomic.Pointer[jobs.Scheduler]

// publishVars registers the service metrics with expvar once per process:
// job counters (submitted, completed, failed, canceled, queue depth) and
// cache effectiveness. The same readings, and the per-phase latency
// histogram job_phase_duration_seconds, are on /metrics.
func publishVars() {
	if expvar.Get("jobs") != nil {
		return
	}
	expvar.Publish("jobs", expvar.Func(func() any {
		if s := activeScheduler.Load(); s != nil {
			return s.Counters()
		}
		return nil
	}))
	expvar.Publish("jobs.cache", expvar.Func(func() any {
		if s := activeScheduler.Load(); s != nil {
			return s.Cache().Stats()
		}
		return nil
	}))
}

// newMux mounts the job API, the distributed shard protocol (when a
// coordinator is configured), and the observability endpoints —
// /metrics, /debug/traces, /debug/pprof, /debug/vars — and wraps
// everything in the obs middleware (per-route metrics, request spans,
// request log lines).
func newMux(s *jobs.Scheduler, coord *dist.Coordinator, mgr *campaign.Manager, tenants *tenant.Registry, reg *obs.Registry, tracer *obs.Tracer, logger *slog.Logger) http.Handler {
	activeScheduler.Store(s)
	publishVars()
	mux := http.NewServeMux()
	jobsMux := jobs.NewHandler(s)
	mux.Handle("/", jobsMux)
	if coord != nil {
		coord.RegisterRoutes(mux)
	}
	if mgr != nil {
		campaign.RegisterRoutes(mux, mgr)
	}
	mux.Handle("GET /metrics", obs.MetricsHandler(reg))
	mux.Handle("GET /debug/traces", obs.TracesHandler(tracer))
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	// Tenant auth sits inside the obs middleware so 401/429 rejections
	// still get per-route metrics, spans, and request log lines.
	guarded := tenant.Middleware(mux, tenant.MiddlewareOptions{Registry: tenants, Obs: reg})
	return obs.Middleware(guarded, obs.MiddlewareOptions{
		Registry: reg,
		Tracer:   tracer,
		Logger:   logger,
		// The jobs API is mounted behind "/" on the outer mux, so the
		// route resolver consults the inner API mux for the granular
		// "POST /v1/jobs"-style patterns.
		Route: obs.RouteFromMux(mux, jobsMux),
	})
}

// newCoordinator builds the distributed-execution coordinator, or nil
// with -dist=false (jobs then always run in-process).
func newCoordinator(opts options, reg *obs.Registry, logger *slog.Logger) *dist.Coordinator {
	if !opts.dist {
		return nil
	}
	return dist.NewCoordinator(dist.Options{
		LeaseTTL:  opts.leaseTTL,
		MaxShards: opts.distShards,
		Obs:       reg,
		Logger:    logger,
	})
}

func newScheduler(opts options, coord *dist.Coordinator, tenants *tenant.Registry, reg *obs.Registry, tracer *obs.Tracer, logger *slog.Logger) (*jobs.Scheduler, error) {
	cache, err := jobs.NewCache(opts.cacheEntries, opts.cacheDir)
	if err != nil {
		return nil, err
	}
	jopts := jobs.Options{
		Workers:       opts.workers,
		QueueDepth:    opts.queueDepth,
		JobTimeout:    opts.jobTimeout,
		SweepParallel: opts.sweepWorkers,
		Cache:         cache,
		Tenants:       tenants,
		Obs:           reg,
		Tracer:        tracer,
		Logger:        logger,
	}
	if coord != nil {
		// The interface value must stay nil when the coordinator is nil —
		// a typed nil would make the scheduler call through it.
		jopts.Dist = coord
	}
	return jobs.NewScheduler(jopts)
}

// loadTenants builds the tenant registry: open single-tenant mode with
// no -tenants flag, the validated config file otherwise.
func loadTenants(path string) (*tenant.Registry, error) {
	if path == "" {
		return tenant.Open(), nil
	}
	reg, err := tenant.Load(path)
	if err != nil {
		return nil, fmt.Errorf("-tenants: %w", err)
	}
	return reg, nil
}

// resumeCampaigns restarts every campaign the previous server life
// checkpointed into the cache directory. A record that no longer
// decodes (version skew, manual tampering) is logged and skipped — one
// bad checkpoint must not keep the server from booting.
func resumeCampaigns(sched *jobs.Scheduler, mgr *campaign.Manager, logger *slog.Logger) {
	for _, id := range sched.Cache().Checkpoints.List() {
		if _, err := mgr.Resume(id); err != nil {
			logger.Warn("campaign resume", "campaign_id", obs.ShortID(id), "error", err.Error())
			continue
		}
		logger.Info("campaign resumed", "campaign_id", obs.ShortID(id))
	}
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, opts.logLevel)
	reg := obs.Default()
	tracer := obs.NewTracer(opts.traceSpans)
	coord := newCoordinator(opts, reg, logger)
	tenants, err := loadTenants(opts.tenantsPath)
	if err != nil {
		logger.Error("startup", "error", err.Error())
		os.Exit(1)
	}
	sched, err := newScheduler(opts, coord, tenants, reg, tracer, logger)
	if err != nil {
		logger.Error("startup", "error", err.Error())
		os.Exit(1)
	}
	mgr := campaign.NewManager(campaign.ManagerOptions{
		Executor:        jobs.NewRoundExecutor(sched),
		Checkpointer:    sched.Cache().Checkpoints,
		FindingsDir:     opts.findingsDir,
		CheckpointEvery: opts.checkpointEvery,
		Obs:             reg,
		Tracer:          tracer,
		Logger:          logger,
	})
	resumeCampaigns(sched, mgr, logger)
	srv := &http.Server{Addr: opts.addr, Handler: newMux(sched, coord, mgr, tenants, reg, tracer, logger)}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("listening",
		"addr", opts.addr, "workers", opts.workers, "queue", opts.queueDepth, "cache_dir", opts.cacheDir)

	select {
	case err := <-errc:
		logger.Error("serve", "error", err.Error())
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down: draining jobs", "drain_timeout", opts.drainTimeout.String())
	shCtx, cancel := context.WithTimeout(context.Background(), opts.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		logger.Error("http shutdown", "error", err.Error())
	}
	// Campaigns before the scheduler: each campaign writes its final
	// checkpoint and releases its in-flight round job before the worker
	// pool drains.
	if err := mgr.Shutdown(shCtx); err != nil {
		logger.Error("campaign shutdown", "error", err.Error())
	}
	if err := sched.Shutdown(shCtx); err != nil {
		logger.Error("scheduler shutdown", "error", err.Error())
	}
	logger.Info("drained")
}
