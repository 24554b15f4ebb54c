package tenant

import (
	"bytes"
	"encoding/json"
	"testing"

	"jayanti98/internal/obs"
)

// FuzzTenantConfig drives the tenants-file decoder (Load's obs.DecodeJSON)
// and New with arbitrary bytes. Neither may panic. A config New accepts
// must survive re-encoding: the encoded form decodes again, New accepts
// it, and every tenant keeps its limits. The committed corpus under
// testdata/fuzz seeds it.
func FuzzTenantConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var cfg Config
		if err := obs.DecodeJSON(bytes.NewReader(data), &cfg); err != nil {
			return
		}
		reg, err := New(cfg)
		if err != nil {
			return
		}
		enc, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", cfg, err)
		}
		var again Config
		if err := obs.DecodeJSON(bytes.NewReader(enc), &again); err != nil {
			t.Fatalf("re-encoded config %s does not decode: %v", enc, err)
		}
		reg2, err := New(again)
		if err != nil {
			t.Fatalf("re-encoded config %s rejected: %v", enc, err)
		}
		for _, tn := range cfg.Tenants {
			if a, b := reg.LimitsFor(tn.Name), reg2.LimitsFor(tn.Name); a != b {
				t.Fatalf("tenant %q limits %+v, %+v after re-encoding", tn.Name, a, b)
			}
		}
	})
}
