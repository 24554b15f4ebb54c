package tenant

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"jayanti98/internal/obs"
)

type ctxKey struct{}

// WithTenant returns ctx carrying the tenant name.
func WithTenant(ctx context.Context, name string) context.Context {
	return context.WithValue(ctx, ctxKey{}, name)
}

// FromContext returns the tenant name carried by ctx, or DefaultName
// when the request never passed the middleware (direct handler tests,
// internal submissions).
func FromContext(ctx context.Context) string {
	if name, ok := ctx.Value(ctxKey{}).(string); ok && name != "" {
		return name
	}
	return DefaultName
}

// MiddlewareOptions configures Middleware.
type MiddlewareOptions struct {
	// Registry authenticates keys (nil: Open()).
	Registry *Registry
	// Obs receives the tenant_* metrics (nil: obs.Default()).
	Obs *obs.Registry
}

// Middleware authenticates and rate-limits the API surface:
//
//   - Only /v1/ paths are guarded; /healthz, /metrics, and /debug stay
//     open — liveness and observability must outlive a lost key.
//   - The key comes from "Authorization: Bearer <key>" or "X-API-Key".
//     Unknown keys (and anonymous requests against a closed registry
//     that does not allow them) answer 401.
//   - Each admitted request spends one token from the tenant's bucket;
//     an empty bucket answers 429 with Retry-After in whole seconds.
//     The shard pull protocol (/v1/shards/...) is authenticated but not
//     metered: heartbeats at TTL/3 are protocol overhead, not tenant
//     demand, and throttling them would churn leases.
//   - The request context is stamped with the tenant name for the
//     handlers (FromContext) and downstream job records.
func Middleware(next http.Handler, opts MiddlewareOptions) http.Handler {
	reg := opts.Registry
	if reg == nil {
		reg = Open()
	}
	met := opts.Obs
	if met == nil {
		met = obs.Default()
	}
	limiter := NewLimiter(reg)
	unauthorized := met.Counter("tenant_unauthorized_total",
		"Requests rejected 401: unknown key, or anonymous against a closed registry.", nil)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		t, ok := reg.Authenticate(KeyFromRequestHeader(r.Header.Get))
		if !ok {
			unauthorized.Inc()
			w.Header().Set("WWW-Authenticate", `Bearer realm="lbserver"`)
			obs.WriteError(w, http.StatusUnauthorized, errors.New("unknown or missing API key"))
			return
		}
		met.Counter("tenant_requests_total", "Requests admitted past tenant auth, by tenant.",
			obs.Labels{"tenant": t.Name}).Inc()
		if !strings.HasPrefix(r.URL.Path, "/v1/shards") {
			if ok, retry := limiter.Allow(t); !ok {
				met.Counter("tenant_rate_limited_total", "Requests rejected 429 by the tenant token bucket, by tenant.",
					obs.Labels{"tenant": t.Name}).Inc()
				w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retry)))
				obs.WriteError(w, http.StatusTooManyRequests, errors.New("rate limit exceeded for tenant "+t.Name))
				return
			}
		}
		next.ServeHTTP(w, r.WithContext(WithTenant(r.Context(), t.Name)))
	})
}

// retryAfterSeconds rounds a wait up to whole seconds (minimum 1), the
// granularity the Retry-After header speaks.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}
