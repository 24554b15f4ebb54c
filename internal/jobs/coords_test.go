package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"jayanti98/internal/campaign"
	"jayanti98/internal/obs"
)

// partSpecs are small specs of each shardable kind. The pinned parts and
// the FuzzMergeParts corpus were produced from them.
func partSpecs(t testing.TB) map[string]*Spec {
	specs := map[string]*Spec{
		"sweep":       {Kind: KindSweep, Sweep: &SweepSpec{Type: "queue", MaxN: 16}},
		"sweep-small": {Kind: KindSweep, Sweep: &SweepSpec{Type: "queue", MaxN: 4}},
		// Budget 3 makes most samples fail, so the part carries failures.
		"fuzz-central": {Kind: KindExplore, Explore: &ExploreSpec{
			Mode: "fuzz", Alg: "central", Samples: 23, Seed: 5, Budget: 3}},
		"fuzz-gu3": {Kind: KindExplore, Explore: &ExploreSpec{
			Mode: "fuzz", Alg: "group-update", N: 3, Samples: 20}},
		"round": {Kind: KindCampaignRound, CampaignRound: &campaign.RoundSpec{
			Campaign: campaign.Spec{Alg: "group-update", Object: "fetch-increment", N: 2, BatchSize: 24, MaxCorpus: 8},
			Round:    1,
			Corpus:   [][]int{{0, 1, 0, 1}, {1, 1, 0}},
		}},
	}
	for _, s := range specs {
		if _, err := s.ID(); err != nil {
			t.Fatal(err)
		}
	}
	return specs
}

// TestRunPartPinnedBytes pins the wire bytes of a part for one range of
// each shardable kind (testdata/parts). A worker and a coordinator built
// from different commits exchange these bytes, so they must not move.
// The sweep range crosses from group-update into herlihy.
func TestRunPartPinnedBytes(t *testing.T) {
	specs := partSpecs(t)
	cases := []struct {
		file   string
		spec   string
		lo, hi int
	}{
		{"sweep-2-7.json", "sweep", 2, 7},
		{"fuzz-central-5-13.json", "fuzz-central", 5, 13},
		{"fuzz-gu3-7-15.json", "fuzz-gu3", 7, 15},
		{"round-3-11.json", "round", 3, 11},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "parts", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunPart(context.Background(), specs[tc.spec], tc.lo, tc.hi, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("part bytes moved\n got %s\nwant %s", got, want)
			}
		})
	}
}

// FuzzMergeParts feeds worker uploads, untrusted bytes, to the one part
// decoder. kind picks the sweep, explore fuzz or campaign-round spec, and
// data is the single part of its whole range. MergeParts must not panic,
// and a part it accepts must assemble to a payload that decodes strictly
// as the kind's result type and encodes back to the same bytes. The
// committed corpus holds parts of each kind as RunPart wrote them, and
// truncated, trailing-data, wrong-count and garbage variants.
func FuzzMergeParts(f *testing.F) {
	specs := partSpecs(f)
	kinds := []struct {
		spec   *Spec
		result func() any
	}{
		{specs["sweep"], func() any { return new(SweepResult) }},
		{specs["fuzz-central"], func() any { return new(ExploreResult) }},
		{specs["round"], func() any { return new(campaign.RoundResult) }},
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		k := kinds[int(kind)%len(kinds)]
		n, _ := k.spec.Coords()
		out, err := MergeParts(k.spec, []int{n}, [][]byte{data})
		if err != nil {
			return
		}
		res := k.result()
		if err := obs.DecodeJSON(bytes.NewReader(out), res); err != nil {
			t.Fatalf("accepted part assembles to bytes that do not decode as %T: %v\n%s", res, err, out)
		}
		if again, err := json.Marshal(res); err != nil || !bytes.Equal(again, out) {
			t.Fatalf("payload does not survive a decode and encode (%v):\n%s\n%s", err, out, again)
		}
	})
}
