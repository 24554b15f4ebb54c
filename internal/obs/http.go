package obs

import (
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"
)

// MiddlewareOptions wires a Middleware to its sinks. Zero-value fields
// fall back to the process defaults (Default registry, DefaultTracer,
// slog.Default), so Middleware(next, MiddlewareOptions{}) is usable as is.
type MiddlewareOptions struct {
	Registry *Registry
	Tracer   *Tracer
	Logger   *slog.Logger
	// Route maps a request to its bounded-cardinality route label. nil
	// falls back to the request method — pass RouteFromMux to label with
	// the mux pattern that will serve the request.
	Route func(*http.Request) string
}

// RouteFromMux labels requests with the ServeMux pattern that will handle
// them ("POST /v1/jobs", "GET /v1/jobs/{id}", ...), the bounded label set
// per-route histograms need; unmatched requests are labeled "unmatched".
// With several muxes (an outer mux delegating "/" to a mounted API mux,
// as cmd/lbserver does), the first specific pattern wins: a bare "/"
// match is only the answer when no listed mux knows anything finer.
func RouteFromMux(muxes ...*http.ServeMux) func(*http.Request) string {
	return func(r *http.Request) string {
		sawCatchAll := false
		for _, mux := range muxes {
			switch _, pattern := mux.Handler(r); pattern {
			case "":
			case "/":
				sawCatchAll = true
			default:
				return pattern
			}
		}
		if sawCatchAll {
			return "/"
		}
		return "unmatched"
	}
}

// Middleware instruments an HTTP handler: per-route request counters and
// latency histograms, an in-flight gauge, one span per request, a request
// correlation ID, and one structured log line per request. The context
// handed to next carries the tracer, span, request ID, and logger, so
// everything downstream (the job scheduler, the experiment sweeps) joins
// the same trace and log stream.
func Middleware(next http.Handler, opts MiddlewareOptions) http.Handler {
	reg := opts.Registry
	if reg == nil {
		reg = Default()
	}
	tracer := opts.Tracer
	if tracer == nil {
		tracer = DefaultTracer()
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	route := opts.Route
	if route == nil {
		route = func(r *http.Request) string { return r.Method }
	}
	inFlight := reg.Gauge("http_requests_in_flight", "Requests currently being served.", nil)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt := route(r)
		labels := Labels{"route": rt}
		inFlight.Inc()
		defer inFlight.Dec()

		reqID := NewRequestID()
		ctx := WithLogger(WithRequestID(r.Context(), reqID), logger)
		ctx, span := tracer.Start(ctx, rt)
		span.SetAttr("request_id", reqID)

		rw := &respWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rw, r.WithContext(ctx))
		elapsed := time.Since(start)

		code := rw.status()
		span.SetAttr("status", strconv.Itoa(code))
		span.End()
		reg.Counter("http_requests_total", "Requests served, by route and status code.",
			Labels{"route": rt, "code": strconv.Itoa(code)}).Inc()
		reg.Histogram("http_request_duration_seconds", "Request latency, by route.",
			nil, labels).Observe(elapsed.Seconds())
		Logger(ctx).Info("request",
			"route", rt, "path", r.URL.Path, "status", code,
			"bytes", rw.bytes, "duration_ms", float64(elapsed)/float64(time.Millisecond))
	})
}

// respWriter captures the status code and byte count while passing
// Flush through — the NDJSON event stream depends on flushing.
type respWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so streamed responses keep
// streaming through the middleware.
func (w *respWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap supports http.ResponseController.
func (w *respWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *respWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// MetricsHandler serves the registry in the Prometheus text exposition
// format — the /metrics endpoint.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// TracesHandler serves the tracer's retained spans as JSON span trees —
// the /debug/traces endpoint. ?flat=1 returns the raw span list instead.
func TracesHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if r.URL.Query().Get("flat") != "" {
			_ = enc.Encode(t.Spans())
			return
		}
		_ = enc.Encode(t.Trees())
	})
}

// WriteJSON answers with v encoded as JSON under the given status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers {"error": "..."} under the given status code, the
// error shape of every JSON API the service mounts.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}

// DecodeJSON decodes the one JSON value in r into v. It rejects unknown
// fields and anything but whitespace after the value.
func DecodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case err == nil:
		return errors.New("data after the JSON value")
	default:
		return err
	}
}

// DecodeBody decodes a request body of at most limit bytes with
// DecodeJSON. On failure it also returns the status code to answer: 413
// for a body over limit, 400 for any other.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) (int, error) {
	err := DecodeJSON(http.MaxBytesReader(w, r.Body, limit), v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return http.StatusOK, nil
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, err
	default:
		return http.StatusBadRequest, err
	}
}
