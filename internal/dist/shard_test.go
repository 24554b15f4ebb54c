package dist

import (
	"bytes"
	"context"
	"testing"

	"jayanti98/internal/jobs"
)

func TestPartitionEdgeCases(t *testing.T) {
	cases := []struct {
		name      string
		n, shards int
		want      []Range
	}{
		{"empty", 0, 4, nil},
		{"negative", -3, 4, nil},
		{"one coordinate many shards", 1, 8, []Range{{0, 1}}},
		{"shards exceed coordinates", 3, 8, []Range{{0, 1}, {1, 2}, {2, 3}}},
		{"zero shards clamp to one", 5, 0, []Range{{0, 5}}},
		{"negative shards clamp to one", 5, -2, []Range{{0, 5}}},
		{"even split", 6, 3, []Range{{0, 2}, {2, 4}, {4, 6}}},
		{"remainder goes to the first ranges", 7, 3, []Range{{0, 3}, {3, 5}, {5, 7}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Partition(tc.n, tc.shards)
			if len(got) != len(tc.want) {
				t.Fatalf("Partition(%d, %d) = %v, want %v", tc.n, tc.shards, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("Partition(%d, %d) = %v, want %v", tc.n, tc.shards, got, tc.want)
				}
			}
		})
	}
}

// TestPartitionCoversContiguously is the partition invariant over a grid
// of sizes: the ranges tile [0, n) in order, every range is nonempty, and
// no two range lengths differ by more than one.
func TestPartitionCoversContiguously(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for shards := 1; shards <= 12; shards++ {
			ranges := Partition(n, shards)
			lo, minLen, maxLen := 0, n, 0
			for _, r := range ranges {
				if r.Lo != lo || r.Len() < 1 {
					t.Fatalf("Partition(%d, %d) = %v: not a contiguous tiling", n, shards, ranges)
				}
				if r.Len() < minLen {
					minLen = r.Len()
				}
				if r.Len() > maxLen {
					maxLen = r.Len()
				}
				lo = r.Hi
			}
			if lo != n {
				t.Fatalf("Partition(%d, %d) = %v: covers [0, %d), want [0, %d)", n, shards, ranges, lo, n)
			}
			if maxLen-minLen > 1 {
				t.Fatalf("Partition(%d, %d) = %v: lengths differ by %d", n, shards, ranges, maxLen-minLen)
			}
		}
	}
}

// TestCoordsShardability pins which specs the coordinator splits across
// the fleet, and into how many coordinates.
func TestCoordsShardability(t *testing.T) {
	norm := func(s *jobs.Spec) *jobs.Spec {
		t.Helper()
		s.Normalize()
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name      string
		spec      *jobs.Spec
		coords    int
		shardable bool
	}{
		{"nil spec", nil, 0, false},
		{"report", norm(&jobs.Spec{Kind: jobs.KindReport}), 0, false},
		{"exhaustive explore", norm(&jobs.Spec{Kind: jobs.KindExplore,
			Explore: &jobs.ExploreSpec{Mode: "exhaustive"}}), 0, false},
		{"fuzz explore", norm(&jobs.Spec{Kind: jobs.KindExplore,
			Explore: &jobs.ExploreSpec{Mode: "fuzz", Samples: 17}}), 17, true},
		// 3 constructions × ns {2,4,8,16} = 12 grid points.
		{"sweep all constructions", norm(&jobs.Spec{Kind: jobs.KindSweep,
			Sweep: &jobs.SweepSpec{Type: "queue", MaxN: 16}}), 12, true},
		{"sweep one construction", norm(&jobs.Spec{Kind: jobs.KindSweep,
			Sweep: &jobs.SweepSpec{Type: "queue", Constructions: []string{"central"}, MaxN: 8}}), 3, true},
		{"sweep kind without sub-spec", &jobs.Spec{Kind: jobs.KindSweep}, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coords, ok := tc.spec.Coords()
			if coords != tc.coords || ok != tc.shardable {
				t.Fatalf("Coords = (%d, %v), want (%d, %v)", coords, ok, tc.coords, tc.shardable)
			}
		})
	}
}

// serialResult runs the spec through the in-process reference path.
func serialResult(t *testing.T, spec *jobs.Spec) []byte {
	t.Helper()
	out, err := jobs.Execute(context.Background(), spec, jobs.NewProgress(), 2)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// lens returns each range's coordinate count, MergeParts' view of a
// partition.
func lens(ranges []Range) []int {
	out := make([]int, len(ranges))
	for i, r := range ranges {
		out[i] = r.Len()
	}
	return out
}

// distributedResult runs every range of the partition as a worker would
// and merges the parts as the coordinator does.
func distributedResult(t *testing.T, spec *jobs.Spec, shards int) []byte {
	t.Helper()
	n, ok := spec.Coords()
	if !ok {
		t.Fatalf("spec kind %q not shardable", spec.Kind)
	}
	ranges := Partition(n, shards)
	parts := make([][]byte, len(ranges))
	for i, r := range ranges {
		p, err := jobs.RunPart(context.Background(), spec, r.Lo, r.Hi, 2)
		if err != nil {
			t.Fatalf("shard %d %+v: %v", i, r, err)
		}
		parts[i] = p
	}
	merged, err := jobs.MergeParts(spec, lens(ranges), parts)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

// TestShardMergeMatchesSerialSweep is the acceptance property for sweep
// jobs: for every shard count, executing the shards independently and
// merging index-ordered reproduces the serial result byte-for-byte.
func TestShardMergeMatchesSerialSweep(t *testing.T) {
	spec := &jobs.Spec{Kind: jobs.KindSweep, Sweep: &jobs.SweepSpec{Type: "queue", MaxN: 16}}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	serial := serialResult(t, spec)
	coords, _ := spec.Coords()
	for _, shards := range []int{1, 2, 3, 5, coords, coords + 7} {
		merged := distributedResult(t, spec, shards)
		if !bytes.Equal(merged, serial) {
			t.Errorf("%d shards: merged result differs from serial\nserial: %s\nmerged: %s",
				shards, serial, merged)
		}
	}
}

// TestShardMergeMatchesSerialFuzz is the same property for fuzz
// campaigns: shard boundaries never move a sample's derived seed, so the
// merged report is byte-identical — including the failure list.
func TestShardMergeMatchesSerialFuzz(t *testing.T) {
	spec := &jobs.Spec{Kind: jobs.KindExplore, Explore: &jobs.ExploreSpec{
		Mode: "fuzz", Alg: "central", Samples: 23, Seed: 5,
	}}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	serial := serialResult(t, spec)
	for _, shards := range []int{1, 2, 4, 23} {
		merged := distributedResult(t, spec, shards)
		if !bytes.Equal(merged, serial) {
			t.Errorf("%d shards: merged fuzz result differs from serial\nserial: %s\nmerged: %s",
				shards, serial, merged)
		}
	}
}

// TestExecuteShardRejectsBadInput: a worker refuses a grant whose spec
// does not shard or whose range leaves the grid.
func TestExecuteShardRejectsBadInput(t *testing.T) {
	sweepSpec := &jobs.Spec{Kind: jobs.KindSweep, Sweep: &jobs.SweepSpec{Type: "queue", MaxN: 4}}
	sweepSpec.Normalize()
	report := &jobs.Spec{Kind: jobs.KindReport}
	report.Normalize()
	cases := []struct {
		name string
		spec *jobs.Spec
		r    Range
	}{
		{"not shardable", report, Range{0, 1}},
		{"nil spec", nil, Range{0, 1}},
		{"negative lo", sweepSpec, Range{-1, 2}},
		{"hi beyond grid", sweepSpec, Range{0, 1000}},
		{"empty range", sweepSpec, Range{2, 2}},
		{"inverted range", sweepSpec, Range{3, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := jobs.RunPart(context.Background(), tc.spec, tc.r.Lo, tc.r.Hi, 1); err == nil {
				t.Fatal("RunPart accepted")
			}
		})
	}
}

func TestMergeRejectsInconsistentShards(t *testing.T) {
	spec := &jobs.Spec{Kind: jobs.KindSweep, Sweep: &jobs.SweepSpec{Type: "queue", MaxN: 4}}
	spec.Normalize()
	n, _ := spec.Coords()
	ranges := Partition(n, 2)

	if _, err := jobs.MergeParts(spec, lens(ranges), [][]byte{[]byte(`{}`)}); err == nil {
		t.Fatal("MergeParts accepted a range/part count mismatch")
	}
	short := []byte(`{"results":[]}`)
	if _, err := jobs.MergeParts(spec, lens(ranges), [][]byte{short, short}); err == nil {
		t.Fatal("MergeParts accepted a part with too few results")
	}
	if _, err := jobs.MergeParts(spec, lens(ranges), [][]byte{[]byte(`not json`), short}); err == nil {
		t.Fatal("MergeParts accepted a corrupt part")
	}
	report := &jobs.Spec{Kind: jobs.KindReport}
	report.Normalize()
	if _, err := jobs.MergeParts(report, nil, nil); err == nil {
		t.Fatal("MergeParts accepted a non-shardable spec")
	}
}
