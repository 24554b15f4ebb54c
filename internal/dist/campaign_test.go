package dist

import (
	"bytes"
	"testing"

	"jayanti98/internal/campaign"
	"jayanti98/internal/jobs"
)

func campaignRoundJobSpec(corpus [][]int) *jobs.Spec {
	spec := &jobs.Spec{Kind: jobs.KindCampaignRound, CampaignRound: &campaign.RoundSpec{
		Campaign: campaign.Spec{
			Alg: "group-update", Object: "fetch-increment", N: 2, BatchSize: 24, MaxCorpus: 8,
		},
		Round:  1,
		Corpus: corpus,
	}}
	spec.Normalize()
	return spec
}

func TestCoordsCampaignRound(t *testing.T) {
	spec := campaignRoundJobSpec(nil)
	coords, ok := spec.Coords()
	if !ok || coords != 24 {
		t.Fatalf("Coords = (%d, %v), want (24, true)", coords, ok)
	}
	if _, ok := (&jobs.Spec{Kind: jobs.KindCampaignRound}).Coords(); ok {
		t.Fatal("campaign-round spec without sub-spec counted as shardable")
	}
}

// TestShardMergeMatchesSerialCampaignRound is the merge property for
// campaign rounds: a round sharded over any worker partition — the
// shard-lease fan-out — reassembles to the exact bytes of the in-process
// round, corpus mutations included (every shard sees the same frozen
// corpus from the lease grant).
func TestShardMergeMatchesSerialCampaignRound(t *testing.T) {
	corpus := [][]int{{0, 1, 0, 1}, {1, 1, 0}, {0, 0, 1, 1, 0}}
	spec := campaignRoundJobSpec(corpus)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	serial := serialResult(t, spec)
	coords, _ := spec.Coords()
	for _, shards := range []int{1, 2, 3, 7, coords} {
		merged := distributedResult(t, spec, shards)
		if !bytes.Equal(merged, serial) {
			t.Errorf("%d shards: merged campaign round differs from serial", shards)
		}
	}
}
