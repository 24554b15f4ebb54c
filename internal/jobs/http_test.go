package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"jayanti98/internal/tenant"
)

func newTestServer(t *testing.T, opts Options) (*Scheduler, *httptest.Server) {
	t.Helper()
	s := newTestScheduler(t, opts)
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(srv.Close)
	return s, srv
}

func doJSON(t *testing.T, method, url string, body string) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func pollDone(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job: %d %s", resp.StatusCode, body)
		}
		var view JobView
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatalf("decoding view: %v (%s)", err, body)
		}
		if view.Status.Terminal() {
			return view
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobView{}
}

// TestHTTPIdempotentSubmitAndCachedResult is the acceptance-criteria test:
// submitting the same job spec twice returns the same job ID and a
// byte-identical cached result.
func TestHTTPIdempotentSubmitAndCachedResult(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 2})
	spec := `{"kind":"explore","explore":{"alg":"central","mode":"exhaustive"}}`

	resp, body := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first POST: %d %s", resp.StatusCode, body)
	}
	var first JobView
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if len(first.ID) != 64 {
		t.Fatalf("job ID %q is not a sha256 digest", first.ID)
	}
	done := pollDone(t, srv.URL, first.ID)
	if done.Status != StatusDone {
		t.Fatalf("job ended %s (%s)", done.Status, done.Error)
	}
	if len(done.Result) == 0 {
		t.Fatal("done view has no result")
	}

	// Same spec, spelled with defaults explicit and fields reordered.
	equivalent := `{"explore":{"mode":"exhaustive","alg":"central","object":"fetch-increment","n":2,"opsPerProc":1},"kind":"explore"}`
	resp, body = doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", equivalent)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second POST: %d %s (want 200 — idempotent resubmission)", resp.StatusCode, body)
	}
	var second JobView
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if second.ID != first.ID {
		t.Fatalf("equivalent specs got different IDs: %s vs %s", second.ID, first.ID)
	}
	if !second.Cached {
		t.Fatal("resubmission should be served as cached")
	}
	if !bytes.Equal(second.Result, done.Result) {
		t.Fatalf("cached result differs:\n  first:  %s\n  second: %s", done.Result, second.Result)
	}

	// Cache stats are exposed.
	resp, body = doJSON(t, http.MethodGet, srv.URL+"/v1/cache/stats", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache stats: %d", resp.StatusCode)
	}
	var st CacheStats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Entries != 1 {
		t.Fatalf("cache entries = %d, want 1", st.Entries)
	}
}

// sseFrame is one parsed Server-Sent Events frame.
type sseFrame struct {
	ID    int
	Event string
	Data  string
}

// readSSE consumes the stream until EOF, returning the parsed frames
// (comment heartbeats are dropped).
func readSSE(t *testing.T, body *bufio.Scanner) []sseFrame {
	t.Helper()
	var frames []sseFrame
	cur := sseFrame{ID: -1}
	flushFrame := func() {
		if cur.Event != "" || cur.Data != "" {
			frames = append(frames, cur)
		}
		cur = sseFrame{ID: -1}
	}
	for body.Scan() {
		line := body.Text()
		switch {
		case line == "":
			flushFrame()
		case strings.HasPrefix(line, ":"):
			// comment / heartbeat
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.Atoi(strings.TrimPrefix(line, "id: "))
			if err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
			cur.ID = id
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = strings.TrimPrefix(line, "data: ")
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if err := body.Err(); err != nil {
		t.Fatal(err)
	}
	flushFrame()
	return frames
}

func TestHTTPEventsStream(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1})
	spec := `{"kind":"explore","explore":{"alg":"central","mode":"exhaustive"}}`
	resp, body := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST: %d %s", resp.StatusCode, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}

	// Subscribe immediately; the stream must end with the terminal
	// "status" event regardless of how many progress frames we catch.
	eresp, err := http.Get(srv.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if ct := eresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}
	frames := readSSE(t, bufio.NewScanner(eresp.Body))
	if len(frames) == 0 {
		t.Fatal("stream had no frames, want at least the terminal status event")
	}
	// Every frame carries JSON data; IDs never decrease.
	lastID := -1
	for i, fr := range frames {
		if !json.Valid([]byte(fr.Data)) {
			t.Fatalf("frame %d data %q is not JSON", i, fr.Data)
		}
		if fr.ID < lastID {
			t.Fatalf("event id regressed at frame %d: %+v", i, frames)
		}
		lastID = fr.ID
		if i < len(frames)-1 && fr.Event != "progress" {
			t.Fatalf("frame %d event = %q, want progress", i, fr.Event)
		}
	}
	last := frames[len(frames)-1]
	if last.Event != "status" {
		t.Fatalf("final frame event = %q, want status: %+v", last.Event, frames)
	}
	var terminal struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal([]byte(last.Data), &terminal); err != nil {
		t.Fatal(err)
	}
	if terminal.Status != string(StatusDone) {
		t.Fatalf("terminal status = %q, want done: %+v", terminal.Status, frames)
	}
}

func TestHTTPCancelJob(t *testing.T) {
	started := make(chan struct{})
	swapRunSpec(t, func(ctx context.Context, spec *Spec, p *Progress, parallel int) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	s, srv := newTestServer(t, Options{Workers: 1})

	spec := `{"kind":"explore","explore":{"mode":"exhaustive"}}`
	resp, body := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST: %d %s", resp.StatusCode, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	<-started

	resp, body = doJSON(t, http.MethodDelete, srv.URL+"/v1/jobs/"+view.ID, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d %s", resp.StatusCode, body)
	}
	final := pollDone(t, srv.URL, view.ID)
	if final.Status != StatusCanceled {
		t.Fatalf("cancelled job = %s, want canceled", final.Status)
	}
	if len(final.Result) != 0 {
		t.Fatal("cancelled job carries a result")
	}
	if _, ok := s.Cache().Results.Get(view.ID); ok {
		t.Fatal("cancelled job poisoned the cache")
	}
}

func TestHTTPListJobs(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 2})

	// Before any submission the listing is present but empty.
	resp, body := doJSON(t, http.MethodGet, srv.URL+"/v1/jobs", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs: %d %s", resp.StatusCode, body)
	}
	var listing struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatalf("decoding listing: %v (%s)", err, body)
	}
	if listing.Jobs == nil || len(listing.Jobs) != 0 {
		t.Fatalf("empty listing = %s, want {\"jobs\":[]}", body)
	}

	// Two distinct jobs; wait until both are terminal.
	ids := make([]string, 0, 2)
	for _, alg := range []string{"central", "herlihy"} {
		spec := fmt.Sprintf(`{"kind":"explore","explore":{"alg":%q,"mode":"exhaustive"}}`, alg)
		resp, body := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", spec)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST: %d %s", resp.StatusCode, body)
		}
		var view JobView
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, view.ID)
	}
	for _, id := range ids {
		if done := pollDone(t, srv.URL, id); done.Status != StatusDone {
			t.Fatalf("job %s ended %s", id, done.Status)
		}
	}

	resp, body = doJSON(t, http.MethodGet, srv.URL+"/v1/jobs", "")
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(listing.Jobs) != 2 {
		t.Fatalf("listing after 2 jobs: %d %s", resp.StatusCode, body)
	}
	// Oldest submission first, results elided.
	if listing.Jobs[0].ID != ids[0] && listing.Jobs[0].Created.After(listing.Jobs[1].Created) {
		t.Fatalf("listing out of order: %s", body)
	}
	for _, v := range listing.Jobs {
		if len(v.Result) != 0 {
			t.Fatalf("listing embeds a result payload: %s", body)
		}
		if v.Status != StatusDone {
			t.Fatalf("job %s listed as %s, want done", v.ID, v.Status)
		}
	}

	// Status filtering: done matches both, queued matches none.
	resp, body = doJSON(t, http.MethodGet, srv.URL+"/v1/jobs?status=done", "")
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(listing.Jobs) != 2 {
		t.Fatalf("?status=done: %d %s", resp.StatusCode, body)
	}
	resp, body = doJSON(t, http.MethodGet, srv.URL+"/v1/jobs?status=queued", "")
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(listing.Jobs) != 0 {
		t.Fatalf("?status=queued: %d %s", resp.StatusCode, body)
	}

	// An unknown status value is a client error, not an empty result.
	resp, body = doJSON(t, http.MethodGet, srv.URL+"/v1/jobs?status=exploded", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("?status=exploded: %d %s, want 400", resp.StatusCode, body)
	}
}

func TestHTTPDeleteTerminalJobConflicts(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1})

	spec := `{"kind":"explore","explore":{"alg":"central","mode":"exhaustive"}}`
	resp, body := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST: %d %s", resp.StatusCode, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	done := pollDone(t, srv.URL, view.ID)
	if done.Status != StatusDone {
		t.Fatalf("job ended %s", done.Status)
	}

	// DELETE on the finished job: 409, and the body is the final view so
	// the caller learns the true state in one round trip.
	resp, body = doJSON(t, http.MethodDelete, srv.URL+"/v1/jobs/"+view.ID, "")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE terminal: %d %s, want 409", resp.StatusCode, body)
	}
	var final JobView
	if err := json.Unmarshal(body, &final); err != nil {
		t.Fatalf("409 body is not a job view: %v (%s)", err, body)
	}
	if final.ID != view.ID || final.Status != StatusDone || len(final.Result) == 0 {
		t.Fatalf("409 view = %s", body)
	}

	// The conflict must not have disturbed the job.
	if again := pollDone(t, srv.URL, view.ID); again.Status != StatusDone {
		t.Fatalf("job flipped to %s after conflicting DELETE", again.Status)
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1})

	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"bad json", http.MethodPost, "/v1/jobs", `{"kind":`, http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/v1/jobs", `{"kind":"report","frobnicate":1}`, http.StatusBadRequest},
		{"invalid spec", http.MethodPost, "/v1/jobs", `{"kind":"bogus"}`, http.StatusBadRequest},
		{"unknown job", http.MethodGet, "/v1/jobs/deadbeef", "", http.StatusNotFound},
		{"unknown job events", http.MethodGet, "/v1/jobs/deadbeef/events", "", http.StatusNotFound},
		{"unknown job cancel", http.MethodDelete, "/v1/jobs/deadbeef", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := doJSON(t, tc.method, srv.URL+tc.path, tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s: %d %s, want %d", tc.method, tc.path, resp.StatusCode, body, tc.want)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("error body %q is not {\"error\": ...}", body)
			}
		})
	}
}

// TestHTTPOversizedSpec413: a spec body past the limit is refused with
// 413 before it is buffered whole, and no job is created.
func TestHTTPOversizedSpec413(t *testing.T) {
	s, srv := newTestServer(t, Options{Workers: 1})
	body := `{"kind":"report","report":{"quick":true,"experiments":["E1","` + strings.Repeat("a", maxSpecBytes) + `"]}}`
	resp, out := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST: %d %s, want 413", resp.StatusCode, out)
	}
	if jobs := s.List(); len(jobs) != 0 {
		t.Fatalf("oversized POST created %d jobs", len(jobs))
	}
}

func TestHTTPHealthz(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1})
	resp, body := doJSON(t, http.MethodGet, srv.URL+"/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz body = %s", body)
	}
}

func TestHTTPQueueFullMaps503(t *testing.T) {
	release := make(chan struct{})
	running := make(chan struct{})
	var once bool
	swapRunSpec(t, func(ctx context.Context, spec *Spec, p *Progress, parallel int) ([]byte, error) {
		if !once {
			once = true
			close(running)
		}
		select {
		case <-release:
			return []byte(`{"ok":true}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	_, srv := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	defer close(release)

	for i := 2; i <= 3; i++ {
		spec := fmt.Sprintf(`{"kind":"explore","explore":{"n":%d,"mode":"exhaustive"}}`, i)
		resp, body := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", spec)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST %d: %d %s", i, resp.StatusCode, body)
		}
		if i == 2 {
			<-running
		}
	}
	resp, body := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", `{"kind":"explore","explore":{"n":4,"mode":"exhaustive"}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow POST: %d %s, want 503", resp.StatusCode, body)
	}
}

// TestHTTPEventsResumeLastEventID: a client reconnecting with
// Last-Event-ID is served only events newer than that sequence number —
// no duplicated frames, same terminal status event.
func TestHTTPEventsResumeLastEventID(t *testing.T) {
	emitted := make(chan struct{})
	release := make(chan struct{})
	swapRunSpec(t, func(ctx context.Context, spec *Spec, p *Progress, parallel int) ([]byte, error) {
		p.Set("phase-a", 1, 3) // seq 2 (seq 1 is "queued")
		close(emitted)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		p.Set("phase-b", 2, 3) // seq 3
		return []byte(`{"ok":true}`), nil
	})
	_, srv := newTestServer(t, Options{Workers: 1})

	resp, body := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", `{"kind":"explore","explore":{"mode":"fuzz"}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST: %d %s", resp.StatusCode, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	<-emitted

	// First connection: catch the snapshot (seq ≥ 2), then "disconnect".
	eresp, err := http.Get(srv.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(eresp.Body)
	lastSeen := -1
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "id: ") {
			lastSeen, err = strconv.Atoi(strings.TrimPrefix(line, "id: "))
			if err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	eresp.Body.Close()
	if lastSeen < 2 {
		t.Fatalf("first connection saw id %d, want the phase-a snapshot (≥ 2)", lastSeen)
	}

	close(release)
	pollDone(t, srv.URL, view.ID)

	// Reconnect with Last-Event-ID: every frame must be strictly newer.
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+view.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", strconv.Itoa(lastSeen))
	eresp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer eresp2.Body.Close()
	frames := readSSE(t, bufio.NewScanner(eresp2.Body))
	if len(frames) == 0 {
		t.Fatal("resumed stream had no frames")
	}
	for i, fr := range frames {
		if fr.ID <= lastSeen {
			t.Fatalf("resumed frame %d has id %d ≤ Last-Event-ID %d: %+v", i, fr.ID, lastSeen, frames)
		}
	}
	if last := frames[len(frames)-1]; last.Event != "status" {
		t.Fatalf("resumed stream final event = %q, want status", last.Event)
	}

	// The ?lastEventId= query spelling behaves identically (for clients
	// that cannot set headers).
	eresp3, err := http.Get(srv.URL + "/v1/jobs/" + view.ID + "/events?lastEventId=" + strconv.Itoa(lastSeen))
	if err != nil {
		t.Fatal(err)
	}
	defer eresp3.Body.Close()
	for i, fr := range readSSE(t, bufio.NewScanner(eresp3.Body)) {
		if fr.ID <= lastSeen {
			t.Fatalf("query-resumed frame %d has id %d ≤ %d", i, fr.ID, lastSeen)
		}
	}
}

// TestHTTPEventsHeartbeat: an idle stream carries comment heartbeats so
// proxies do not reap the connection.
func TestHTTPEventsHeartbeat(t *testing.T) {
	orig := SSEHeartbeat
	SSEHeartbeat = 20 * time.Millisecond
	t.Cleanup(func() { SSEHeartbeat = orig })

	release := make(chan struct{})
	swapRunSpec(t, func(ctx context.Context, spec *Spec, p *Progress, parallel int) ([]byte, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return []byte(`{}`), nil
	})
	_, srv := newTestServer(t, Options{Workers: 1})
	defer close(release)

	resp, body := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", `{"kind":"explore","explore":{"mode":"fuzz"}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST: %d %s", resp.StatusCode, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	eresp, err := http.Get(srv.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	sc := bufio.NewScanner(eresp.Body)
	deadline := time.Now().Add(10 * time.Second)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), ":") {
			return // heartbeat observed
		}
		if time.Now().After(deadline) {
			break
		}
	}
	t.Fatalf("no heartbeat on an idle stream: %v", sc.Err())
}

// TestHTTPTenantSubmitAndQueueCap429 exercises the full tenant path over
// HTTP: the middleware authenticates the key, the handler submits as
// that tenant, and a submission past the tenant's queued cap answers 429
// with Retry-After.
func TestHTTPTenantSubmitAndQueueCap429(t *testing.T) {
	reg, err := tenant.New(tenant.Config{Tenants: []tenant.Tenant{
		{Name: "acme", Key: "k-acme", Limits: tenant.Limits{MaxQueued: 1}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	swapRunSpec(t, func(ctx context.Context, spec *Spec, p *Progress, parallel int) ([]byte, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return []byte(`{}`), nil
	})
	s := newTestScheduler(t, Options{Workers: 1, Tenants: reg})
	srv := httptest.NewServer(tenant.Middleware(NewHandler(s), tenant.MiddlewareOptions{Registry: reg}))
	t.Cleanup(srv.Close)
	defer close(release)

	post := func(seed int, key string) (*http.Response, []byte) {
		t.Helper()
		spec := fmt.Sprintf(`{"kind":"explore","explore":{"mode":"fuzz","seed":%d}}`, seed)
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			req.Header.Set("Authorization", "Bearer "+key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	// No key: the closed registry rejects before the handler runs.
	if resp, _ := post(1, ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("anonymous POST = %d, want 401", resp.StatusCode)
	}
	// Authenticated submissions run as the keyed tenant.
	resp, body := post(1, "k-acme")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST 1: %d %s", resp.StatusCode, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.Tenant != "acme" {
		t.Fatalf("job tenant = %q, want acme", view.Tenant)
	}
	<-started // seed 1 occupies the worker
	if resp, body := post(2, "k-acme"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST 2: %d %s", resp.StatusCode, body) // queued, at the cap
	}
	resp, body = post(3, "k-acme")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap POST = %d %s, want 429", resp.StatusCode, body)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("429 Retry-After = %q, want a positive whole-second count", resp.Header.Get("Retry-After"))
	}
}
