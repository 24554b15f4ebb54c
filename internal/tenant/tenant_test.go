package tenant

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"jayanti98/internal/obs"
)

func closedRegistry(t *testing.T, cfg Config) *Registry {
	t.Helper()
	reg, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestOpenRegistryAdmitsEverything(t *testing.T) {
	reg := Open()
	if !reg.open {
		t.Fatal("Open() registry reports closed")
	}
	for _, key := range []string{"", "any-key-at-all"} {
		tn, ok := reg.Authenticate(key)
		if !ok || tn.Name != DefaultName {
			t.Fatalf("Authenticate(%q) = %+v, %v; want default tenant admitted", key, tn, ok)
		}
	}
	if lim := reg.LimitsFor(DefaultName); lim != (Limits{}) {
		t.Fatalf("open registry default limits = %+v, want zero", lim)
	}
}

func TestClosedRegistryAuth(t *testing.T) {
	reg := closedRegistry(t, Config{Tenants: []Tenant{
		{Name: "acme", Key: "k-acme", Limits: Limits{Weight: 3, MaxRunning: 2, MaxQueued: 5}},
		{Name: "zeta", Key: "k-zeta"},
	}})
	if reg.open {
		t.Fatal("closed registry reports open")
	}
	if tn, ok := reg.Authenticate("k-acme"); !ok || tn.Name != "acme" {
		t.Fatalf("valid key rejected: %+v, %v", tn, ok)
	}
	if _, ok := reg.Authenticate("wrong"); ok {
		t.Fatal("unknown key admitted")
	}
	if _, ok := reg.Authenticate(""); ok {
		t.Fatal("anonymous admitted without allowAnonymous")
	}
	if lim := reg.LimitsFor("acme"); lim.Weight != 3 || lim.MaxRunning != 2 || lim.MaxQueued != 5 {
		t.Fatalf("acme limits = %+v", lim)
	}
	// Unknown names (a tenant removed from the config while its journal
	// records survive) must not strand work: zero limits, weight 1.
	if lim := reg.LimitsFor("ghost"); lim != (Limits{}) || lim.NormWeight() != 1 {
		t.Fatalf("unknown tenant limits = %+v", lim)
	}
}

func TestAllowAnonymousMapsToDefault(t *testing.T) {
	// Anonymous with no configured "default" tenant: admitted, zero limits.
	reg := closedRegistry(t, Config{
		Tenants:        []Tenant{{Name: "acme", Key: "k"}},
		AllowAnonymous: true,
	})
	if tn, ok := reg.Authenticate(""); !ok || tn.Name != DefaultName {
		t.Fatalf("anonymous = %+v, %v", tn, ok)
	}
	// A configured "default" tenant's limits apply to anonymous requests.
	reg = closedRegistry(t, Config{
		Tenants:        []Tenant{{Name: DefaultName, Key: "k-def", Limits: Limits{MaxQueued: 2}}},
		AllowAnonymous: true,
	})
	if tn, ok := reg.Authenticate(""); !ok || tn.MaxQueued != 2 {
		t.Fatalf("anonymous with configured default = %+v, %v", tn, ok)
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{Tenants: []Tenant{{Name: "", Key: "k"}}},
		{Tenants: []Tenant{{Name: "a", Key: "k"}, {Name: "a", Key: "k2"}}},
		{Tenants: []Tenant{{Name: "a", Key: ""}}},
		{Tenants: []Tenant{{Name: "a", Key: "k"}, {Name: "b", Key: "k"}}},
		{Tenants: []Tenant{{Name: "a", Key: "k", RatePerSec: -1}}},
		{Tenants: []Tenant{{Name: "a", Key: "k", Limits: Limits{MaxQueued: -1}}}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}

func TestLoadTenantsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(`{
		"tenants": [{"name": "acme", "key": "k-acme", "ratePerSec": 10, "weight": 2}],
		"allowAnonymous": true
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	tn, ok := reg.Authenticate("k-acme")
	if !ok || tn.RatePerSec != 10 || tn.NormWeight() != 2 {
		t.Fatalf("loaded tenant = %+v, %v", tn, ok)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := os.WriteFile(path, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("malformed file accepted")
	}
}

// TestLoadRejectsNestedLimits: a tenants file that nests the limits under
// a "limits" key, as README's example once did, is an error. Decoded
// leniently it loaded with every limit dropped: acme ran with weight 1
// and no caps. The corrected example loads its limits.
func TestLoadRejectsNestedLimits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	for _, bad := range []string{
		`{"tenants": [{"name": "acme", "key": "k-acme", "ratePerSec": 50,
			"limits": {"weight": 3, "maxRunning": 4, "maxQueued": 64}}]}`,
		`{"tenants": [{"name": "acme", "key": "k-acme"}]} {}`,
	} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if reg, err := Load(path); err == nil {
			t.Fatalf("Load(%s) accepted it with acme limits %+v", bad, reg.LimitsFor("acme"))
		}
	}
	good := `{"tenants": [{"name": "acme", "key": "k-acme", "ratePerSec": 50,
		"weight": 3, "maxRunning": 4, "maxQueued": 64}]}`
	if err := os.WriteFile(path, []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reg.LimitsFor("acme"), (Limits{Weight: 3, MaxRunning: 4, MaxQueued: 64}); got != want {
		t.Fatalf("acme limits = %+v, want %+v", got, want)
	}
}

func TestKeyFromRequestHeader(t *testing.T) {
	get := func(h map[string]string) func(string) string {
		return func(name string) string { return h[name] }
	}
	cases := []struct {
		headers map[string]string
		want    string
	}{
		{map[string]string{"Authorization": "Bearer abc"}, "abc"},
		{map[string]string{"Authorization": "Bearer  abc "}, "abc"},
		{map[string]string{"Authorization": "Basic abc"}, ""},
		{map[string]string{"X-API-Key": "xyz"}, "xyz"},
		{map[string]string{"Authorization": "Bearer abc", "X-API-Key": "xyz"}, "abc"},
		{map[string]string{}, ""},
	}
	for i, c := range cases {
		if got := KeyFromRequestHeader(get(c.headers)); got != c.want {
			t.Errorf("case %d: got %q, want %q", i, got, c.want)
		}
	}
}

func TestBucketRefill(t *testing.T) {
	clock := time.Unix(1000, 0)
	b := NewBucket(2, 2) // 2 tokens/s, burst 2
	b.now = func() time.Time { return clock }
	b.last = clock
	for i := 0; i < 2; i++ {
		if ok, _ := b.Allow(); !ok {
			t.Fatalf("token %d denied from a full bucket", i)
		}
	}
	ok, retry := b.Allow()
	if ok {
		t.Fatal("empty bucket admitted a request")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry = %s, want (0, 1s] at 2 tokens/s", retry)
	}
	// Advancing the clock past the retry hint refills exactly enough.
	clock = clock.Add(retry)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("bucket still empty after the suggested retry wait")
	}
	// Refill clamps at burst: a long idle period does not bank tokens.
	clock = clock.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if ok, _ := b.Allow(); !ok {
			t.Fatalf("token %d denied after refill to burst", i)
		}
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("burst clamp failed: more than burst tokens after idle")
	}
}

func TestBucketUnlimited(t *testing.T) {
	b := NewBucket(0, 0)
	for i := 0; i < 1000; i++ {
		if ok, _ := b.Allow(); !ok {
			t.Fatal("zero-rate bucket denied a request")
		}
	}
}

func TestBucketDefaultBurst(t *testing.T) {
	b := NewBucket(2.5, 0)
	if b.burst != 3 {
		t.Fatalf("default burst = %v, want ceil(2.5) = 3", b.burst)
	}
	if b := NewBucket(0.1, 0); b.burst != 1 {
		t.Fatalf("tiny-rate default burst = %v, want 1", b.burst)
	}
}

// echoHandler records the tenant name the middleware stamped on the
// request context.
func echoHandler(got *[]string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		*got = append(*got, FromContext(r.Context()))
		w.WriteHeader(http.StatusOK)
	})
}

func TestMiddlewareAuthPaths(t *testing.T) {
	reg := closedRegistry(t, Config{Tenants: []Tenant{{Name: "acme", Key: "k-acme"}}})
	var tenants []string
	h := Middleware(echoHandler(&tenants), MiddlewareOptions{Registry: reg, Obs: obs.NewRegistry()})
	srv := httptest.NewServer(h)
	defer srv.Close()

	do := func(path, header, value string) *http.Response {
		req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if header != "" {
			req.Header.Set(header, value)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// No key against a closed registry: 401 with a challenge.
	resp := do("/v1/jobs", "", "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("anonymous /v1/ = %d, want 401", resp.StatusCode)
	}
	if resp.Header.Get("WWW-Authenticate") == "" {
		t.Fatal("401 carries no WWW-Authenticate challenge")
	}
	if resp := do("/v1/jobs", "Authorization", "Bearer nope"); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad key = %d, want 401", resp.StatusCode)
	}
	// Liveness and observability stay open.
	for _, path := range []string{"/healthz", "/metrics", "/debug/vars"} {
		if resp := do(path, "", ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200 without a key", path, resp.StatusCode)
		}
	}
	// Both key spellings admit and stamp the tenant.
	tenants = nil
	if resp := do("/v1/jobs", "Authorization", "Bearer k-acme"); resp.StatusCode != http.StatusOK {
		t.Fatalf("bearer key = %d, want 200", resp.StatusCode)
	}
	if resp := do("/v1/jobs", "X-API-Key", "k-acme"); resp.StatusCode != http.StatusOK {
		t.Fatalf("X-API-Key = %d, want 200", resp.StatusCode)
	}
	if len(tenants) != 2 || tenants[0] != "acme" || tenants[1] != "acme" {
		t.Fatalf("handler saw tenants %v, want [acme acme]", tenants)
	}
}

func TestMiddlewareRateLimit429(t *testing.T) {
	reg := closedRegistry(t, Config{Tenants: []Tenant{
		{Name: "acme", Key: "k-acme", RatePerSec: 1, Burst: 2},
	}})
	var tenants []string
	h := Middleware(echoHandler(&tenants), MiddlewareOptions{Registry: reg, Obs: obs.NewRegistry()})
	srv := httptest.NewServer(h)
	defer srv.Close()

	do := func(path string) *http.Response {
		req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer k-acme")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Burst admits 2, the third is metered out.
	for i := 0; i < 2; i++ {
		if resp := do("/v1/jobs"); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d = %d, want 200", i, resp.StatusCode)
		}
	}
	resp := do("/v1/jobs")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst request = %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive whole-second count", resp.Header.Get("Retry-After"))
	}
	// The shard pull protocol is authenticated but never metered:
	// heartbeats at TTL/3 are protocol overhead, not tenant demand.
	for i := 0; i < 20; i++ {
		if resp := do("/v1/shards/lease"); resp.StatusCode != http.StatusOK {
			t.Fatalf("shard request %d = %d, want unmetered 200", i, resp.StatusCode)
		}
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{time.Millisecond, 1},
		{time.Second, 1},
		{time.Second + time.Millisecond, 2},
		{2500 * time.Millisecond, 3},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.d); got != c.want {
			t.Errorf("retryAfterSeconds(%s) = %d, want %d", c.d, got, c.want)
		}
	}
}
