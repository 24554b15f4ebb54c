package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"jayanti98/internal/jobs"
	"jayanti98/internal/sweep"
)

// The service workload drives the real cmd/lbserver binary on loopback:
// POST /v1/jobs → result, with open-loop arrivals at a fixed rate below
// saturation. One request in five is cold: a never-seen explore-fuzz
// spec the server must compute, journal and cache. The rest are hits:
// specs an earlier server life computed during set-up, served after a
// restart over the same cache directory from the replayed journal. Every
// request is timed from its due time, so a stall delays the requests
// behind it too.
//
// The class pattern is fixed (every fifth arrival is cold), so each run
// has the same mix: op_ms_p50 falls mid-way into the hits and op_ms_p90
// mid-way into the colds.

const (
	serviceRate  = 100 // arrivals per second
	coldEvery    = 5   // arrival i is cold when i%coldEvery == coldAt
	coldAt       = 2
	hitSpecs     = 32 // distinct hit specs computed in set-up
	sampledSpecs = 6  // hit specs and cold requests whose bytes are compared with jobs.Execute

	// Latency limits for slo_miss_ratio, per class.
	hitLimit  = 20 * time.Millisecond
	coldLimit = 200 * time.Millisecond
	// genLateBound is how far behind schedule the load generator may send
	// (its p99) before the run is invalid.
	genLateBound = 25 * time.Millisecond
	reqTimeout   = 20 * time.Second
)

// serviceSpec is the request of one arrival: an explore fuzz job of
// group-update at n = 3 with a seed and a small sample count.
func serviceSpec(seed int64, samples int) *jobs.Spec {
	return &jobs.Spec{Kind: jobs.KindExplore, Explore: &jobs.ExploreSpec{
		Alg: "group-update", N: 3, Mode: "fuzz", Samples: samples, Seed: seed,
	}}
}

// arrival is one scheduled request.
type arrival struct {
	due  time.Duration // since the start of the timed phase
	cold bool
	spec int // index into the hit specs, or the cold request's own spec
}

// servicePlan is every input of one service run, drawn from the seed.
type servicePlan struct {
	hits     []*jobs.Spec
	colds    []*jobs.Spec
	arrivals []arrival
}

func newServicePlan(seed int64, seconds int) servicePlan {
	rng := rand.New(rand.NewSource(sweep.Derive(seed, 4)))
	samples := func() int { return 16 + rng.Intn(25) }
	var p servicePlan
	for j := 0; j < hitSpecs; j++ {
		p.hits = append(p.hits, serviceSpec(sweep.Derive(sweep.Derive(seed, 5), j), samples()))
	}
	mean := time.Second / serviceRate
	var t time.Duration
	for i := 0; ; i++ {
		// Jittered arrivals: gaps uniform in [0.5, 1.5] × the mean gap.
		t += mean/2 + time.Duration(rng.Int63n(int64(mean)))
		if t >= time.Duration(seconds)*time.Second {
			break
		}
		a := arrival{due: t, cold: i%coldEvery == coldAt}
		if a.cold {
			a.spec = len(p.colds)
			p.colds = append(p.colds, serviceSpec(sweep.Derive(sweep.Derive(seed, 6), a.spec), samples()))
		} else {
			a.spec = rng.Intn(hitSpecs)
		}
		p.arrivals = append(p.arrivals, a)
	}
	return p
}

// server is one running lbserver process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches lbserver over cacheDir and waits until it answers
// /healthz. Its log goes to <cacheDir>.log.
func startServer(bin, cacheDir string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(cacheDir+".log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-cache-dir", cacheDir, "-workers", "2", "-parallel", "1", "-log-level", "warn")
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even one that crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting lbserver: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			return nil, fmt.Errorf("lbserver exited during start-up: %v", err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("lbserver did not answer /healthz within 15s")
		}
	}
}

// stop sends SIGTERM, waits for a graceful exit, and kills the process if
// it has not drained in time.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// procStat reads the process's CPU time and peak resident set.
func (s *server) procStat() (cpu time.Duration, rssPeakMB float64, err error) {
	pid := s.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	fields := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	utime, _ := strconv.ParseInt(fields[11], 10, 64) // stat fields 14 and 15, in clock ticks
	stime, _ := strconv.ParseInt(fields[12], 10, 64)
	cpu = time.Duration(utime+stime) * 10 * time.Millisecond // USER_HZ is 100 on Linux
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			rssPeakMB = kb * 1024 / 1e6
		}
	}
	return cpu, rssPeakMB, nil
}

// jobView is the part of the service's JobView the benchmark reads.
type jobView struct {
	ID       string          `json:"id"`
	Status   string          `json:"status"`
	Cached   bool            `json:"cached"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started"`
	Finished *time.Time      `json:"finished"`
}

// client is one keep-alive HTTP connection to the server.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   reqTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

func doJSON(c *http.Client, method, url string, body []byte, want int, v any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, url, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(data, v)
}

// waitStatus follows the job's Server-Sent Events until the final status
// event and returns when it arrived.
func waitStatus(c *http.Client, base, id string) (string, time.Time, error) {
	resp, err := c.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", time.Time{}, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	final := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: status" {
			final = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && final {
			at := time.Now()
			var ev struct {
				Status string `json:"status"`
			}
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return "", at, err
			}
			_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
			return ev.Status, at, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", time.Time{}, err
	}
	return "", time.Time{}, errors.New("events: stream ended without a status event")
}

// checkExplore holds a fuzz result to what a correct construction must
// give: the requested samples, steps taken, and no failures. It returns
// the steps.
func checkExplore(spec *jobs.Spec, result []byte) (int64, error) {
	var r jobs.ExploreResult
	if err := json.Unmarshal(result, &r); err != nil {
		return 0, fmt.Errorf("decoding result: %w", err)
	}
	if r.Mode != "fuzz" || r.Samples != spec.Explore.Samples || r.TotalSteps <= 0 || len(r.Failures) != 0 {
		return 0, fmt.Errorf("result mode=%s samples=%d steps=%d failures=%d, want fuzz %d samples, steps, no failures",
			r.Mode, r.Samples, r.TotalSteps, len(r.Failures), spec.Explore.Samples)
	}
	return int64(r.TotalSteps), nil
}

// reqRec is one finished request.
type reqRec struct {
	a        arrival
	late     time.Duration // dispatch time − due time
	total    time.Duration // result received − due time
	submit   time.Duration // POST round trip
	queue    time.Duration // cold: started − created
	run      time.Duration // cold: finished − started
	notify   time.Duration // cold: status event received − finished
	steps    int64
	err      error
	finished time.Time
}

// serviceRun holds one set-up's state: the plan, the server life that
// serves the timed phase, and the bytes every hit must match.
type serviceRun struct {
	plan     servicePlan
	dir      string
	srv      *server
	hitBytes [][]byte
	refHit   map[int][]byte // jobs.Execute bytes of the sampled hit specs
	refCold  map[int][]byte // … and of the sampled cold requests
	bootMS   float64
	diskHits float64
}

// setUpService computes the references, runs a first server life that computes
// every hit spec, and restarts the server over the same directory so the
// hits are served from the replayed journal.
func setUpService(o options, rep int) (*serviceRun, error) {
	r := &serviceRun{plan: newServicePlan(o.seed, o.seconds), refHit: map[int][]byte{}, refCold: map[int][]byte{}}
	r.dir = filepath.Join(o.buildDir, "service", fmt.Sprintf("%d-%d", os.Getpid(), rep))
	if err := os.RemoveAll(r.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	for j := 0; j < sampledSpecs; j++ {
		for _, ref := range []struct {
			m    map[int][]byte
			spec *jobs.Spec
		}{{r.refHit, r.plan.hits[j]}, {r.refCold, r.plan.colds[j]}} {
			spec := *ref.spec
			ex := *spec.Explore
			spec.Explore = &ex
			b, err := jobs.Execute(context.Background(), &spec, jobs.NewProgress(), 1)
			if err != nil {
				r.close()
				return nil, err
			}
			ref.m[j] = b
		}
	}

	bin := filepath.Join(o.buildDir, "lbserver")
	first, err := startServer(bin, r.dir)
	if err != nil {
		r.close()
		return nil, err
	}
	c := newClient()
	err = r.computeHits(c, first.base)
	first.stop()
	if err != nil {
		r.close()
		return nil, err
	}

	if r.srv, err = startServer(bin, r.dir); err != nil {
		r.close()
		return nil, err
	}
	// The boot's journal-replay span, read before request spans push it
	// out of the server's trace ring.
	var spans []struct {
		Name       string  `json:"name"`
		DurationMS float64 `json:"durationMs"`
	}
	if err := doJSON(c, http.MethodGet, r.srv.base+"/debug/traces?flat=1", nil, http.StatusOK, &spans); err != nil {
		r.close()
		return nil, err
	}
	for _, s := range spans {
		if s.Name == "journal replay" {
			r.bootMS = s.DurationMS
		}
	}
	var cs jobs.CacheStats
	if err := doJSON(c, http.MethodGet, r.srv.base+"/v1/cache/stats", nil, http.StatusOK, &cs); err != nil {
		r.close()
		return nil, err
	}
	r.diskHits = float64(cs.DiskHits)
	return r, nil
}

// computeHits submits every hit spec to the first server life, waits
// for each, and keeps the bytes every later hit must match.
func (r *serviceRun) computeHits(c *http.Client, base string) error {
	ids := make([]string, hitSpecs)
	for j, spec := range r.plan.hits {
		body, _ := json.Marshal(spec)
		var v jobView
		if err := doJSON(c, http.MethodPost, base+"/v1/jobs", body, http.StatusCreated, &v); err != nil {
			return err
		}
		ids[j] = v.ID
	}
	r.hitBytes = make([][]byte, hitSpecs)
	for j, id := range ids {
		status, _, err := waitStatus(c, base, id)
		if err != nil {
			return err
		}
		var v jobView
		if err := doJSON(c, http.MethodGet, base+"/v1/jobs/"+id, nil, http.StatusOK, &v); err != nil {
			return err
		}
		if status != "done" || v.Status != "done" {
			return fmt.Errorf("hit spec %d: status %s %s", j, status, v.Error)
		}
		if _, err := checkExplore(r.plan.hits[j], v.Result); err != nil {
			return err
		}
		if ref, ok := r.refHit[j]; ok && !bytes.Equal(ref, v.Result) {
			return fmt.Errorf("hit spec %d: server bytes differ from jobs.Execute", j)
		}
		r.hitBytes[j] = v.Result
	}
	return nil
}

func (r *serviceRun) close() {
	if r.srv != nil {
		r.srv.stop()
	}
	_ = os.RemoveAll(r.dir)
	_ = os.Remove(r.dir + ".log")
}

// serverCounters are the server-side counters read around a timed phase.
type serverCounters struct {
	cpu           time.Duration
	rssMB         float64
	journalWrites float64
	cacheServed   float64
}

func (r *serviceRun) counters(c *http.Client) (serverCounters, error) {
	var sc serverCounters
	var err error
	if sc.cpu, sc.rssMB, err = r.srv.procStat(); err != nil {
		return sc, err
	}
	resp, err := c.Get(r.srv.base + "/metrics")
	if err != nil {
		return sc, err
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return sc, err
	}
	for _, line := range strings.Split(string(text), "\n") {
		if v, ok := strings.CutPrefix(line, "store_journal_writes_total "); ok {
			sc.journalWrites, _ = strconv.ParseFloat(v, 64)
		}
	}
	var vars struct {
		Jobs jobs.Counters `json:"jobs"`
	}
	if err := doJSON(c, http.MethodGet, r.srv.base+"/debug/vars", nil, http.StatusOK, &vars); err != nil {
		return sc, err
	}
	sc.cacheServed = float64(vars.Jobs.CacheServed)
	return sc, nil
}

// do sends one request and checks its answer. hitC carries every POST;
// coldC follows cold jobs to completion.
func (r *serviceRun) do(a arrival, start time.Time, hitC, coldC *http.Client, tr *tracer) reqRec {
	rec := reqRec{a: a, late: time.Since(start) - a.due}
	due := start.Add(a.due)
	name, spec := "cold", r.plan.colds
	if !a.cold {
		name, spec = "hit", r.plan.hits
	}
	root := tr.start(0, "request "+name)
	defer tr.end(root)
	body, _ := json.Marshal(spec[a.spec])
	var v jobView
	want := http.StatusOK
	if a.cold {
		want = http.StatusCreated
	}
	t0 := time.Now()
	tr.do(root, "http POST /v1/jobs", func() {
		rec.err = doJSON(hitC, http.MethodPost, r.srv.base+"/v1/jobs", body, want, &v)
	})
	rec.submit = time.Since(t0)
	if rec.err == nil && a.cold {
		var status string
		var at time.Time
		tr.do(root, "sse wait", func() { status, at, rec.err = waitStatus(coldC, r.srv.base, v.ID) })
		if rec.err == nil && status != "done" {
			rec.err = fmt.Errorf("cold job %s ended %s", v.ID, status)
		}
		if rec.err == nil {
			tr.do(root, "http GET /v1/jobs/{id}", func() {
				rec.err = doJSON(coldC, http.MethodGet, r.srv.base+"/v1/jobs/"+v.ID, nil, http.StatusOK, &v)
			})
		}
		if rec.err == nil && v.Started != nil && v.Finished != nil {
			rec.queue = v.Started.Sub(v.Created)
			rec.run = v.Finished.Sub(*v.Started)
			rec.notify = at.Sub(*v.Finished)
		}
	}
	rec.finished = time.Now()
	rec.total = rec.finished.Sub(due)
	if rec.err != nil {
		return rec
	}
	rec.steps, rec.err = r.checkAnswer(a, spec[a.spec], v)
	return rec
}

// checkAnswer holds one answer to its exact reference and returns the
// simulated steps its result reports.
func (r *serviceRun) checkAnswer(a arrival, spec *jobs.Spec, v jobView) (int64, error) {
	if v.Status != "done" {
		return 0, fmt.Errorf("job %s status %s: %s", v.ID, v.Status, v.Error)
	}
	steps, err := checkExplore(spec, v.Result)
	if err != nil {
		return 0, err
	}
	switch {
	case !a.cold && !v.Cached:
		return 0, fmt.Errorf("hit %d was not served from stored results", a.spec)
	case !a.cold && !bytes.Equal(v.Result, r.hitBytes[a.spec]):
		return 0, fmt.Errorf("hit %d: bytes differ from the first server life's", a.spec)
	}
	if ref, ok := r.refCold[a.spec]; ok && a.cold && !bytes.Equal(ref, v.Result) {
		return 0, fmt.Errorf("cold %d: server bytes differ from jobs.Execute", a.spec)
	}
	return steps, nil
}

// phase sends arr on the open-loop schedule anchored at start and waits
// for every answer.
func (r *serviceRun) phase(arr []arrival, start time.Time, hitC, coldC *http.Client, tr *tracer) []reqRec {
	recs := make([]reqRec, len(arr))
	var wg sync.WaitGroup
	for i, a := range arr {
		time.Sleep(time.Until(start.Add(a.due)))
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			recs[i] = r.do(a, start, hitC, coldC, tr)
		}(i, a)
	}
	wg.Wait()
	return recs
}

// serviceStats summarizes a phase's requests.
type serviceStats struct {
	all, hit, cold, submit, late, queue, run, notify []float64
	steps, runMS                                     float64
	failed, misses                                   int
	firstErr                                         error
	last                                             time.Time
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func summarize(recs []reqRec) serviceStats {
	var s serviceStats
	for _, rec := range recs {
		s.all = append(s.all, ms(rec.total))
		s.late = append(s.late, ms(rec.late))
		s.submit = append(s.submit, ms(rec.submit))
		limit := hitLimit
		if rec.a.cold {
			limit = coldLimit
			s.cold = append(s.cold, ms(rec.total))
		} else {
			s.hit = append(s.hit, ms(rec.total))
		}
		if rec.finished.After(s.last) {
			s.last = rec.finished
		}
		if rec.err != nil {
			s.failed++
			s.misses++
			if s.firstErr == nil {
				s.firstErr = rec.err
			}
			continue
		}
		if rec.total > limit {
			s.misses++
		}
		if rec.a.cold {
			s.queue = append(s.queue, ms(rec.queue))
			s.run = append(s.run, ms(rec.run))
			s.notify = append(s.notify, ms(rec.notify))
			s.steps += float64(rec.steps)
			s.runMS += ms(rec.run)
		}
	}
	return s
}

type pctDef struct {
	name string
	xs   []float64
	p    float64
}

func runService(o options) (*result, error) {
	var setups []float64
	var r *serviceRun
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		run, err := setUpService(o, rep)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			run.close()
		} else {
			r = run
		}
	}
	defer r.close()
	hitC, coldC := newClient(), newClient()
	before, err := r.counters(hitC)
	if err != nil {
		return nil, err
	}
	arr := r.plan.arrivals
	m := map[string]float64{}
	var base, recs []reqRec
	start := time.Now()
	if !o.trace {
		recs = r.phase(arr, start, hitC, coldC, nil)
	} else {
		// Untraced first quarter (the base of the tracing overhead), then
		// a traced rest while the server profiles itself. The profile
		// request is the tracer's, on its own connection.
		split := time.Duration(o.seconds/4) * time.Second
		cut := 0
		for cut < len(arr) && arr[cut].due < split {
			cut++
		}
		base = r.phase(arr[:cut], start, hitC, coldC, nil)
		tr := newTracer()
		profDone := make(chan error, 1)
		var prof []byte
		profC := &http.Client{Timeout: time.Duration(o.seconds+30) * time.Second}
		go func() {
			resp, err := profC.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", r.srv.base, o.seconds-o.seconds/4))
			if err == nil {
				prof, err = io.ReadAll(resp.Body)
				resp.Body.Close()
			}
			profDone <- err
		}()
		recs = r.phase(arr[cut:], start, hitC, coldC, tr)
		if err := <-profDone; err != nil {
			return nil, fmt.Errorf("server profile: %w", err)
		}
		if err := foldShares(prof, m); err != nil {
			return nil, err
		}
		m["trace.overhead_pct"] = 100 * (median(summarize(recs).all)/median(summarize(base).all) - 1)
		if path, err := o.writeSpans(tr); err == nil {
			logf("spans written to %s", path)
		}
	}
	after, err := r.counters(hitC)
	if err != nil {
		return nil, err
	}
	all := append(base, recs...)
	whole := summarize(all)
	s := summarize(recs)
	elapsed := s.last.Sub(start.Add(recs[0].a.due)).Seconds()
	m["setup_s"] = median(setups)
	m["ops_per_s"] = float64(len(recs)-s.failed) / elapsed
	m["sim_steps_per_s"] = s.steps / (s.runMS / 1000)
	m["peak_heap_mb"] = after.rssMB
	pcts := []pctDef{{"op_ms_p50", s.all, 50}, {"op_ms_p90", s.all, 90}}
	if o.trace {
		m["error_rate"] = float64(whole.failed) / float64(len(all))
		m["service.slo_miss_ratio"] = float64(s.misses) / float64(len(recs))
		m["jobs.cache_hit_ratio"] = (after.cacheServed - before.cacheServed) / float64(len(all))
		m["jobs.cache_disk_hits"] = r.diskHits
		m["store.journal_writes_per_job"] = (after.journalWrites - before.journalWrites) / float64(len(whole.cold))
		m["store.boot_replay_ms"] = r.bootMS
		m["server.cpu_ms_per_request"] = ms(after.cpu-before.cpu) / float64(len(all))
		m["server.rss_peak_mb"] = after.rssMB
		m["jobs.run_ms_p50"] = median(s.run)
		m["jobs.queue_wait_ms_p50"] = median(s.queue)
		m["jobs.notify_ms_p50"] = median(s.notify)
		pcts = append(pcts, []pctDef{
			{"service.hit_ms_p50", s.hit, 50}, {"service.hit_ms_p99", s.hit, 99},
			{"service.cold_ms_p50", s.cold, 50}, {"service.cold_ms_p90", s.cold, 90},
			{"http.submit_ms_p50", s.submit, 50}, {"http.submit_ms_p99", s.submit, 99},
			{"jobs.queue_wait_ms_p90", s.queue, 90}, {"jobs.run_ms_p90", s.run, 90},
			{"gen.late_ms_p99", whole.late, 99},
		}...)
	}
	var notes []string
	for _, q := range pcts {
		v, err := percentile(q.xs, q.p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		m[q.name] = v.Value
		notes = append(notes, fmt.Sprintf("%s from %d samples", q.name, v.Samples))
	}
	res := newResult(len(all), whole.failed, whole.firstErr, m)
	res.notes = notes
	// The generator's own bound: its p99 lateness (its worst, when the
	// run is too short for a p99).
	late := slices.Max(whole.late)
	if v, err := percentile(whole.late, 99); err == nil {
		late = v.Value
	}
	if late > ms(genLateBound) {
		res.Correct = false
		logf("invalid run: the load generator ran %.2fms late at p99, beyond its bound %v", late, genLateBound)
	}
	return res, nil
}
