// Package tenant is the multi-tenant access layer of the job service:
// named tenants with API keys, per-tenant token-bucket rate limits, and
// the fair-share weights and caps the job scheduler consumes.
//
// The package deliberately knows nothing about jobs: it authenticates a
// request to a tenant name and meters it, and the scheduler asks the
// registry for that name's scheduling Limits. Keeping tenancy out of the
// job Spec is load-bearing for the cache contract — a job's identity is
// the content hash of its spec alone, so two tenants submitting one spec
// share one job and one cached result. Tenancy decides *when* work runs
// (fair share, caps, rate limits) and who may ask, never *what* the
// result is.
package tenant

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"sync"

	"jayanti98/internal/obs"
)

// DefaultName is the tenant anonymous requests map to when the registry
// is open (no tenants file). Internal submitters — campaign round
// resubmission, journal replay — also run as this tenant.
const DefaultName = "default"

// Limits are the scheduling knobs the job scheduler reads per tenant.
// The zero value means "unconstrained with weight 1".
type Limits struct {
	// Weight is the tenant's fair-share weight in the scheduler's
	// weighted round-robin (≤ 0 reads as 1). A weight-3 tenant gets
	// three dispatch slots for every one a weight-1 tenant gets when
	// both have work pending.
	Weight int `json:"weight,omitempty"`
	// MaxRunning caps the tenant's concurrently running jobs (0: no cap).
	MaxRunning int `json:"maxRunning,omitempty"`
	// MaxQueued caps the tenant's queued-but-not-running jobs (0: no
	// cap). Submissions beyond it answer 429 with Retry-After.
	MaxQueued int `json:"maxQueued,omitempty"`
}

// Tenant is one configured tenant.
type Tenant struct {
	// Name identifies the tenant in metrics, logs, and job records. It
	// must be unique and non-empty.
	Name string `json:"name"`
	// Key is the API key presented as "Authorization: Bearer <key>" (or
	// the X-API-Key header). Empty only for the anonymous tenant.
	Key string `json:"key,omitempty"`
	// RatePerSec refills the tenant's token bucket (0: unlimited).
	RatePerSec float64 `json:"ratePerSec,omitempty"`
	// Burst is the bucket capacity (0 with a rate: ceil(rate), min 1).
	Burst int `json:"burst,omitempty"`

	Limits
}

// NormWeight returns the tenant's effective fair-share weight (≥ 1).
func (l Limits) NormWeight() int {
	if l.Weight <= 0 {
		return 1
	}
	return l.Weight
}

// Config is the tenants file: a list of tenants plus the anonymous
// policy.
type Config struct {
	// Tenants is the tenant list; names and keys must be unique.
	Tenants []Tenant `json:"tenants"`
	// AllowAnonymous admits requests without a key as the "default"
	// tenant (with zero-value limits unless a tenant named "default" is
	// configured). Without it, a closed registry answers 401.
	AllowAnonymous bool `json:"allowAnonymous,omitempty"`
}

// Registry resolves API keys to tenants. A registry is either *open*
// (no tenants configured: every request is the default tenant, no
// limits — the single-user development mode every existing smoke script
// runs in) or *closed* (tenants file loaded: a request must present a
// configured key, or the anonymous tenant must be explicitly allowed).
type Registry struct {
	mu     sync.Mutex
	open   bool
	byKey  map[string]*Tenant
	byName map[string]*Tenant
	anon   *Tenant // non-nil when anonymous requests are admitted
}

// Open returns the open registry: anonymous single-tenant mode with no
// rate limits, the default when lbserver runs without -tenants.
func Open() *Registry {
	anon := &Tenant{Name: DefaultName}
	return &Registry{
		open:   true,
		byKey:  map[string]*Tenant{},
		byName: map[string]*Tenant{DefaultName: anon},
		anon:   anon,
	}
}

// New builds a closed registry from cfg.
func New(cfg Config) (*Registry, error) {
	r := &Registry{
		byKey:  make(map[string]*Tenant, len(cfg.Tenants)),
		byName: make(map[string]*Tenant, len(cfg.Tenants)),
	}
	for i := range cfg.Tenants {
		t := cfg.Tenants[i]
		if t.Name == "" {
			return nil, fmt.Errorf("tenant: entry %d has no name", i)
		}
		if _, dup := r.byName[t.Name]; dup {
			return nil, fmt.Errorf("tenant: duplicate tenant name %q", t.Name)
		}
		if t.Key == "" {
			return nil, fmt.Errorf("tenant: tenant %q has no key", t.Name)
		}
		if _, dup := r.byKey[t.Key]; dup {
			return nil, fmt.Errorf("tenant: tenant %q reuses another tenant's key", t.Name)
		}
		if t.RatePerSec < 0 || t.Burst < 0 || t.MaxRunning < 0 || t.MaxQueued < 0 || t.Weight < 0 {
			return nil, fmt.Errorf("tenant: tenant %q has a negative limit", t.Name)
		}
		r.byName[t.Name] = &t
		r.byKey[t.Key] = &t
	}
	if cfg.AllowAnonymous {
		if t, ok := r.byName[DefaultName]; ok {
			r.anon = t
		} else {
			anon := &Tenant{Name: DefaultName}
			r.byName[DefaultName] = anon
			r.anon = anon
		}
	}
	return r, nil
}

// Load reads a tenants file (JSON Config) into a closed registry. An
// unknown field or data after the JSON value is an error, so a misspelt
// or misplaced limit cannot be dropped silently.
func Load(path string) (*Registry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenant: %w", err)
	}
	var cfg Config
	if err := obs.DecodeJSON(bytes.NewReader(data), &cfg); err != nil {
		return nil, fmt.Errorf("tenant: parsing %s: %w", path, err)
	}
	return New(cfg)
}

// Authenticate resolves a presented key. An empty key resolves to the
// anonymous tenant when one is admitted. The returned Tenant is a copy;
// mutating it does not affect the registry.
func (r *Registry) Authenticate(key string) (Tenant, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if key == "" {
		if r.anon != nil {
			return *r.anon, true
		}
		return Tenant{}, false
	}
	if t, ok := r.byKey[key]; ok {
		return *t, true
	}
	if r.open {
		// Open mode ignores credentials entirely rather than rejecting
		// them, so a client configured with a key keeps working against a
		// development server.
		return *r.anon, true
	}
	return Tenant{}, false
}

// LimitsFor returns the scheduling limits for a tenant name. Unknown
// names (journal records from a since-removed tenant) get the zero
// Limits — weight 1, no caps — so a config change never strands work.
func (r *Registry) LimitsFor(name string) Limits {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.byName[name]; ok {
		return t.Limits
	}
	return Limits{}
}

// KeyFromRequestHeader extracts the API key from the standard places:
// "Authorization: Bearer <key>" first, then "X-API-Key". Empty when
// neither is present.
func KeyFromRequestHeader(get func(string) string) string {
	if auth := get("Authorization"); auth != "" {
		if key, ok := strings.CutPrefix(auth, "Bearer "); ok {
			return strings.TrimSpace(key)
		}
	}
	return strings.TrimSpace(get("X-API-Key"))
}
