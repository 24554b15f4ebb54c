package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"jayanti98/internal/campaign"
	"jayanti98/internal/obs"
)

// mustID hashes the spec or fails the test.
func mustID(t *testing.T, s *Spec) string {
	t.Helper()
	id, err := s.ID()
	if err != nil {
		t.Fatalf("ID(%+v): %v", s, err)
	}
	return id
}

func TestSpecIDDeterministic(t *testing.T) {
	mk := func() *Spec {
		return &Spec{Kind: KindExplore, Explore: &ExploreSpec{Mode: "fuzz", Samples: 50}}
	}
	a, b := mustID(t, mk()), mustID(t, mk())
	if a != b {
		t.Fatalf("same spec hashed differently: %s vs %s", a, b)
	}
	if len(a) != 64 || strings.ToLower(a) != a {
		t.Fatalf("ID %q is not lowercase sha256 hex", a)
	}
}

func TestSpecIDDefaultsInvariant(t *testing.T) {
	cases := []struct {
		name           string
		sparse, filled *Spec
	}{
		{
			"explore fuzz defaults",
			&Spec{Kind: KindExplore, Explore: &ExploreSpec{}},
			&Spec{Kind: KindExplore, Explore: &ExploreSpec{
				Alg: "group-update", Object: "fetch-increment",
				N: 2, OpsPerProc: 1, Mode: "fuzz", Samples: 200, Seed: 1,
			}},
		},
		{
			"explore nil sub-spec",
			&Spec{Kind: KindExplore},
			&Spec{Kind: KindExplore, Explore: &ExploreSpec{}},
		},
		{
			// Exhaustive search ignores sampling knobs entirely.
			"explore exhaustive zeroes sampling",
			&Spec{Kind: KindExplore, Explore: &ExploreSpec{Mode: "exhaustive"}},
			&Spec{Kind: KindExplore, Explore: &ExploreSpec{Mode: "exhaustive", Samples: 999, Seed: 7}},
		},
		{
			"report all experiments == none",
			&Spec{Kind: KindReport, Report: &ReportSpec{}},
			&Spec{Kind: KindReport, Report: &ReportSpec{
				Experiments: []string{"E1", "E2", "E3", "E4/E5", "E6", "E7/E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15"},
			}},
		},
		{
			"report subset order-insensitive",
			&Spec{Kind: KindReport, Report: &ReportSpec{Experiments: []string{"E9", "E1"}}},
			&Spec{Kind: KindReport, Report: &ReportSpec{Experiments: []string{"E1", "E9"}}},
		},
		{
			"sweep default maxN",
			&Spec{Kind: KindSweep, Sweep: &SweepSpec{Type: "queue"}},
			&Spec{Kind: KindSweep, Sweep: &SweepSpec{Type: "queue", MaxN: 64}},
		},
		{
			"sweep full construction set == none",
			&Spec{Kind: KindSweep, Sweep: &SweepSpec{Type: "stack"}},
			&Spec{Kind: KindSweep, Sweep: &SweepSpec{
				Type: "stack", Constructions: []string{"central", "group-update", "herlihy"},
			}},
		},
		{
			"sweep construction order-insensitive",
			&Spec{Kind: KindSweep, Sweep: &SweepSpec{Type: "queue", Constructions: []string{"central", "herlihy"}}},
			&Spec{Kind: KindSweep, Sweep: &SweepSpec{Type: "queue", Constructions: []string{"herlihy", "central"}}},
		},
		{
			// Zoo algorithms default Object to their own workload, and the
			// backend's alias spellings collapse to one ID ("" == native).
			"explore zoo defaults and backend aliases",
			&Spec{Kind: KindExplore, Explore: &ExploreSpec{Alg: "tas-tournament", N: 3, LLSC: "blelloch-wei"}},
			&Spec{Kind: KindExplore, Explore: &ExploreSpec{
				Alg: "tas-tournament", Object: "tas",
				N: 3, OpsPerProc: 1, Mode: "fuzz", Samples: 200, Seed: 1, LLSC: "bw",
			}},
		},
		{
			"explore native backend == empty",
			&Spec{Kind: KindExplore, Explore: &ExploreSpec{Alg: "tas-tv", LLSC: "native"}},
			&Spec{Kind: KindExplore, Explore: &ExploreSpec{Alg: "tas-tv"}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := mustID(t, tc.sparse), mustID(t, tc.filled)
			if a != b {
				t.Fatalf("equivalent specs hashed differently:\n  sparse: %s\n  filled: %s", a, b)
			}
		})
	}
}

func TestSpecIDNormalizeIdempotent(t *testing.T) {
	s := &Spec{Kind: KindExplore, Explore: &ExploreSpec{Mode: "fuzz"}}
	first := mustID(t, s)
	// Hashing again after normalization must not drift.
	second := mustID(t, s)
	if first != second {
		t.Fatalf("ID not idempotent: %s vs %s", first, second)
	}
}

func TestSpecIDDistinguishes(t *testing.T) {
	specs := []*Spec{
		{Kind: KindReport},
		{Kind: KindReport, Report: &ReportSpec{Quick: true}},
		{Kind: KindReport, Report: &ReportSpec{Experiments: []string{"E1"}}},
		{Kind: KindSweep, Sweep: &SweepSpec{Type: "queue"}},
		{Kind: KindSweep, Sweep: &SweepSpec{Type: "stack"}},
		{Kind: KindSweep, Sweep: &SweepSpec{Type: "queue", MaxN: 8}},
		{Kind: KindSweep, Sweep: &SweepSpec{Type: "queue", Constructions: []string{"central"}}},
		{Kind: KindExplore},
		{Kind: KindExplore, Explore: &ExploreSpec{Mode: "exhaustive"}},
		{Kind: KindExplore, Explore: &ExploreSpec{N: 3}},
		{Kind: KindExplore, Explore: &ExploreSpec{Samples: 500}},
		{Kind: KindExplore, Explore: &ExploreSpec{Seed: 2}},
	}
	seen := make(map[string]int)
	for i, s := range specs {
		id := mustID(t, s)
		if prev, dup := seen[id]; dup {
			t.Fatalf("specs %d and %d collided on %s", prev, i, id)
		}
		seen[id] = i
	}
}

func TestSpecIDJSONFieldOrderInvariant(t *testing.T) {
	// Two wire encodings of one spec, keys in different orders.
	a := `{"kind":"explore","explore":{"n":3,"alg":"central","mode":"fuzz"}}`
	b := `{"explore":{"mode":"fuzz","alg":"central","n":3},"kind":"explore"}`
	var sa, sb Spec
	if err := json.Unmarshal([]byte(a), &sa); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b), &sb); err != nil {
		t.Fatal(err)
	}
	if ia, ib := mustID(t, &sa), mustID(t, &sb); ia != ib {
		t.Fatalf("field order changed the hash: %s vs %s", ia, ib)
	}
}

func TestSpecValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		spec *Spec
		want string
	}{
		{"missing kind", &Spec{}, "missing kind"},
		{"unknown kind", &Spec{Kind: "bogus"}, "unknown kind"},
		{"two sub-specs", &Spec{Kind: KindReport, Report: &ReportSpec{}, Sweep: &SweepSpec{Type: "queue"}}, "exactly"},
		{"wrong sub-spec", &Spec{Kind: KindSweep, Report: &ReportSpec{}}, "exactly"},
		{"unknown experiment", &Spec{Kind: KindReport, Report: &ReportSpec{Experiments: []string{"E99"}}}, "unknown name"},
		{"duplicate experiment", &Spec{Kind: KindReport, Report: &ReportSpec{Experiments: []string{"E1", "E1"}}}, "duplicate"},
		{"unknown sweep type", &Spec{Kind: KindSweep, Sweep: &SweepSpec{Type: "tree"}}, "tree"},
		{"missing sweep type", &Spec{Kind: KindSweep}, ""},
		{"unknown construction", &Spec{Kind: KindSweep, Sweep: &SweepSpec{Type: "queue", Constructions: []string{"magic"}}}, "magic"},
		{"sweep maxN too small", &Spec{Kind: KindSweep, Sweep: &SweepSpec{Type: "queue", MaxN: 1}}, "out of range"},
		{"sweep maxN too large", &Spec{Kind: KindSweep, Sweep: &SweepSpec{Type: "queue", MaxN: 1 << 21}}, "out of range"},
		{"explore unknown alg", &Spec{Kind: KindExplore, Explore: &ExploreSpec{Alg: "nope"}}, "nope"},
		{"explore unknown object", &Spec{Kind: KindExplore, Explore: &ExploreSpec{Object: "nope"}}, "nope"},
		{"explore n too large", &Spec{Kind: KindExplore, Explore: &ExploreSpec{N: 9}}, "out of range"},
		{"explore bad mode", &Spec{Kind: KindExplore, Explore: &ExploreSpec{Mode: "guess"}}, "mode"},
		{"explore samples too large", &Spec{Kind: KindExplore, Explore: &ExploreSpec{Samples: 2_000_000}}, "out of range"},
		{"explore negative budget", &Spec{Kind: KindExplore, Explore: &ExploreSpec{Budget: -1}}, "negative"},
		{"explore zoo wrong workload", &Spec{Kind: KindExplore, Explore: &ExploreSpec{Alg: "tas-tournament", Object: "fetch-increment"}}, "implements workload"},
		{"explore zoo multi-op", &Spec{Kind: KindExplore, Explore: &ExploreSpec{Alg: "tas-tournament", OpsPerProc: 2}}, "one-shot"},
		{"explore zoo beyond maxN", &Spec{Kind: KindExplore, Explore: &ExploreSpec{Alg: "tas-tv", N: 3}}, "at most"},
		{"explore bad backend", &Spec{Kind: KindExplore, Explore: &ExploreSpec{LLSC: "bogus"}}, "backend"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.spec.ID(); err == nil {
				t.Fatalf("ID accepted invalid spec %+v", tc.spec)
			} else if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestExploreSpecConfigCarriesEveryField: every explore.Config field but
// the toss assignment (which a spec cannot express) comes from the
// ExploreSpec field of the same name, so a field added to Config without
// a spec counterpart, or dropped by the conversion, fails here. Every
// spec field is set to a distinct non-zero value first, so a field copied
// from the wrong source cannot match by accident.
func TestExploreSpecConfigCarriesEveryField(t *testing.T) {
	var spec ExploreSpec
	sv := reflect.ValueOf(&spec).Elem()
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString("v-" + sv.Type().Field(i).Name)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		default:
			t.Fatalf("ExploreSpec.%s: unhandled kind %s", sv.Type().Field(i).Name, f.Kind())
		}
	}
	cv := reflect.ValueOf(spec.Config())
	for i := 0; i < cv.NumField(); i++ {
		name := cv.Type().Field(i).Name
		if name == "Tosses" {
			continue
		}
		want := sv.FieldByName(name)
		if !want.IsValid() {
			t.Errorf("explore.Config.%s has no ExploreSpec field of the same name", name)
			continue
		}
		if got := cv.Field(i); !reflect.DeepEqual(got.Interface(), want.Interface()) {
			t.Errorf("Config().%s = %v, want the spec's %v", name, got.Interface(), want.Interface())
		}
	}
}

// TestSpecIDDistinguishesLargeSeeds: seeds that differ only in bits a
// float64 cannot hold (above 2^53) are different jobs, and the canonical
// bytes keep every digit. The ID is the cache key, so a collision would
// serve one spec the other's result.
func TestSpecIDDistinguishesLargeSeeds(t *testing.T) {
	for _, seed := range []int64{1 << 53, 1 << 60, math.MaxInt64 - 1} {
		explore := func(seed int64) *Spec {
			return &Spec{Kind: KindExplore, Explore: &ExploreSpec{Mode: "fuzz", Seed: seed}}
		}
		round := func(seed int64) *Spec {
			return &Spec{Kind: KindCampaignRound, CampaignRound: &campaign.RoundSpec{Campaign: campaign.Spec{Seed: seed}}}
		}
		for kind, mk := range map[string]func(int64) *Spec{"explore": explore, "campaign-round": round} {
			a, b := mk(seed), mk(seed+1)
			if ida, idb := mustID(t, a), mustID(t, b); ida == idb {
				t.Errorf("%s: seeds %d and %d share job ID %s", kind, seed, seed+1, ida)
			}
			canon, err := b.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf(`"seed":%d`, seed+1); !strings.Contains(string(canon), want) {
				t.Errorf("%s: canonical bytes %s lack %s", kind, canon, want)
			}
		}
	}
}

// TestSpecIDPinned: the IDs of specs whose integers all fit a float64
// exactly are the ones the float64 canonical encoding gave them, so
// cached results and journal records of such specs stay valid.
func TestSpecIDPinned(t *testing.T) {
	cases := []struct {
		spec *Spec
		id   string
	}{
		{&Spec{Kind: KindExplore, Explore: &ExploreSpec{Alg: "group-update", N: 3, Mode: "fuzz", Samples: 28, Seed: 12345}},
			"c12fe0c530eba95abaca468daa1fbe764efb815e22a108ba009352f0abefcaea"},
		{&Spec{Kind: KindSweep, Sweep: &SweepSpec{Type: "queue", MaxN: 8}},
			"18ed07c4220401dbf265165999e7a95e2d0059e72f275b1a30b8f6972e053bd8"},
		{&Spec{Kind: KindReport, Report: &ReportSpec{Quick: true, Experiments: []string{"E1", "E7/E8"}}},
			"c2d4ace4625ceec30b0ebdee2c5ffd83c4d54a1210e55894b5cc922ff3d0c81a"},
	}
	for _, tc := range cases {
		if got := mustID(t, tc.spec); got != tc.id {
			t.Errorf("%s spec: ID %s, want %s", tc.spec.Kind, got, tc.id)
		}
	}
}

// FuzzSpec feeds POST bodies through the job API's decoder, obs.DecodeJSON
// (unknown fields and trailing data rejected), and then ID, the path every
// submission takes. ID must never panic. For a spec it accepts,
// normalizing again must change nothing, and the canonical bytes must
// decode back to the normalized spec (a nil and an empty slice count as
// equal) with the same ID.
func FuzzSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec := new(Spec)
		if err := obs.DecodeJSON(bytes.NewReader(data), spec); err != nil {
			return
		}
		id, err := spec.ID()
		if err != nil {
			return
		}
		canon, err := spec.Canonical()
		if err != nil {
			t.Fatalf("canonical encoding of an accepted spec: %v", err)
		}
		spec.Normalize()
		if again, err := spec.Canonical(); err != nil || !bytes.Equal(again, canon) {
			t.Fatalf("Normalize is not idempotent (%v):\n%s\n%s", err, canon, again)
		}
		back := new(Spec)
		if err := obs.DecodeJSON(bytes.NewReader(canon), back); err != nil {
			t.Fatalf("canonical bytes do not decode: %v\n%s", err, canon)
		}
		if !equalSpecs(reflect.ValueOf(back), reflect.ValueOf(spec)) {
			t.Fatalf("canonical bytes decode to\n%+v\nnot the normalized spec\n%+v\n%s", back, spec, canon)
		}
		if backID, err := back.ID(); err != nil || backID != id {
			t.Fatalf("decoded canonical spec has ID %s (%v), want %s", backID, err, id)
		}
	})
}

// equalSpecs is reflect.DeepEqual, but for counting a nil and an empty
// slice as equal.
func equalSpecs(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return equalSpecs(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !equalSpecs(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !equalSpecs(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}
