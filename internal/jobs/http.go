package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"jayanti98/internal/obs"
	"jayanti98/internal/tenant"
)

// SSEHeartbeat is the interval between comment heartbeats on the
// /v1/jobs/{id}/events stream; proxies and load balancers drop idle
// connections, and a long-running sweep can legitimately emit no
// progress for a while. Tests shorten it.
var SSEHeartbeat = 15 * time.Second

// NewHandler builds the service's HTTP API over a scheduler:
//
//	POST   /v1/jobs             submit a Spec; idempotent on the content hash
//	GET    /v1/jobs             list tracked jobs; ?status= filters by state
//	GET    /v1/jobs/{id}        status, progress, and (when done) the result
//	DELETE /v1/jobs/{id}        cancel a queued or running job (409 when already terminal)
//	GET    /v1/jobs/{id}/events live progress as Server-Sent Events until terminal
//	GET    /v1/cache/stats      result-cache counters
//	GET    /healthz             liveness
//
// Submissions run as the tenant stamped on the request context by the
// tenant middleware (the default tenant when the API runs open). A
// tenant at its queued-jobs cap gets 429 with Retry-After; a spec body
// over 1 MiB gets 413.
//
// Everything except the event stream is JSON; errors are
// {"error": "..."} with a matching status code. The result field of a
// done job is the cached bytes embedded verbatim (json.RawMessage), so
// two fetches of one job ID are byte-identical.
//
// The event stream is text/event-stream: one "progress" event per
// tracker update (the SSE id field carries the monotonic sequence
// number), comment heartbeats every SSEHeartbeat, and a final "status"
// event when the job reaches a terminal state. Progress events are
// self-contained snapshots, so resume-after-disconnect needs no server
// buffering: a client reconnecting with Last-Event-ID is served only
// events newer than that sequence number.
//
// The concrete *http.ServeMux return lets callers that mount the API
// behind another mux still label requests with the granular API pattern
// (obs.RouteFromMux consults it as a fallback).
func NewHandler(s *Scheduler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec Spec
		if code, err := obs.DecodeBody(w, r, maxSpecBytes, &spec); err != nil {
			obs.WriteError(w, code, fmt.Errorf("decoding spec: %w", err))
			return
		}
		view, created, err := s.SubmitAs(tenant.FromContext(r.Context()), &spec)
		var busy *TenantBusyError
		switch {
		case errors.As(err, &busy):
			w.Header().Set("Retry-After", strconv.Itoa(int((busy.RetryAfter+time.Second-1)/time.Second)))
			obs.WriteError(w, http.StatusTooManyRequests, err)
			return
		case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrShuttingDown):
			obs.WriteError(w, http.StatusServiceUnavailable, err)
			return
		case err != nil:
			obs.WriteError(w, http.StatusBadRequest, err)
			return
		}
		// A brand-new job answers 201; a deduplicated or cache-served
		// submission answers 200 — the idempotency signal.
		code := http.StatusOK
		if created {
			code = http.StatusCreated
		}
		obs.WriteJSON(w, code, view)
	})

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		views := s.List()
		if q := r.URL.Query().Get("status"); q != "" {
			want := Status(q)
			switch want {
			case StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCanceled:
			default:
				obs.WriteError(w, http.StatusBadRequest, fmt.Errorf("unknown status %q", q))
				return
			}
			kept := views[:0]
			for _, v := range views {
				if v.Status == want {
					kept = append(kept, v)
				}
			}
			views = kept
		}
		// The result payloads stay out of the listing — a few sweep jobs
		// would otherwise make it megabytes; fetch a job by ID for its
		// result.
		for i := range views {
			views[i].Result = nil
		}
		obs.WriteJSON(w, http.StatusOK, struct {
			Jobs []JobView `json:"jobs"`
		}{views})
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		view, ok := s.Get(r.PathValue("id"))
		if !ok {
			obs.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		obs.WriteJSON(w, http.StatusOK, view)
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		view, ok := s.Get(id)
		if !ok {
			obs.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
			return
		}
		// Cancelling a finished job is a conflict, not a not-found: the
		// caller's mental model ("this job is still running") is stale, so
		// answer 409 and include the final view to correct it.
		if view.Status.Terminal() {
			obs.WriteJSON(w, http.StatusConflict, view)
			return
		}
		// Cancel tombstones the journal record, so the cancellation is as
		// durable as the submission was: a restarted server replays the
		// job as canceled instead of re-enqueueing it.
		s.Cancel(id)
		view, _ = s.Get(id)
		obs.WriteJSON(w, http.StatusOK, view)
	})

	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(s, w, r)
	})

	mux.HandleFunc("GET /v1/cache/stats", func(w http.ResponseWriter, r *http.Request) {
		obs.WriteJSON(w, http.StatusOK, s.Cache().Stats())
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		obs.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	return mux
}

// statusEvent is the payload of the final SSE "status" event.
type statusEvent struct {
	Status Status `json:"status"`
	Event
}

// serveEvents streams a job's progress as Server-Sent Events:
//
//	id: <seq>
//	event: progress
//	data: {"seq":…,"phase":…,"done":…,"total":…}
//
// finishing with an "event: status" frame carrying the terminal state.
// Comment heartbeats (": hb") flow every SSEHeartbeat so idle
// connections stay alive through proxies. A reconnecting client sends
// Last-Event-ID (or ?lastEventId=) and is only served events with a
// larger sequence number — progress events are snapshots, not deltas,
// so skipping the replayed prefix loses nothing.
func serveEvents(s *Scheduler, w http.ResponseWriter, r *http.Request) {
	view, events, cancel, ok := s.Subscribe(r.PathValue("id"))
	if !ok {
		obs.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	defer cancel()

	lastID := 0
	if raw := r.Header.Get("Last-Event-ID"); raw != "" {
		lastID, _ = strconv.Atoi(raw)
	} else if raw := r.URL.Query().Get("lastEventId"); raw != "" {
		lastID, _ = strconv.Atoi(raw)
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	emit := func(event string, id int, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, event, data); err != nil {
			return false
		}
		flush()
		return true
	}
	final := func() {
		fv, _ := s.Get(view.ID)
		emit("status", fv.Progress.Seq+1, statusEvent{fv.Status, fv.Progress})
	}

	// Snapshot first — unless the client has already seen it (resume).
	if view.Progress.Seq > lastID {
		if !emit("progress", view.Progress.Seq, view.Progress) {
			return
		}
	}
	if view.Status.Terminal() {
		final()
		return
	}

	heartbeat := time.NewTicker(SSEHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case ev, open := <-events:
			if !open {
				// Terminal: the status event also covers any progress
				// events dropped under backpressure.
				final()
				return
			}
			if ev.Seq <= lastID {
				continue
			}
			if !emit("progress", ev.Seq, ev) {
				return
			}
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": hb\n\n"); err != nil {
				return
			}
			flush()
		case <-r.Context().Done():
			return
		}
	}
}

// maxSpecBytes bounds a submitted spec's body. Specs are a few hundred
// bytes; the bound keeps one client from growing the server without limit.
const maxSpecBytes = 1 << 20
