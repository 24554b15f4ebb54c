package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"jayanti98/internal/campaign"
	"jayanti98/internal/obs"
)

// runNormalized normalizes, validates, and executes a spec directly.
func runNormalized(t *testing.T, spec *Spec, parallel int) []byte {
	t.Helper()
	if _, err := spec.ID(); err != nil {
		t.Fatal(err)
	}
	out, err := runSpec(context.Background(), spec, NewProgress(), parallel)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRunSpecSweepParallelismIndependent(t *testing.T) {
	mk := func() *Spec {
		return &Spec{Kind: KindSweep, Sweep: &SweepSpec{
			Type: "queue", Constructions: []string{"central"}, MaxN: 8,
		}}
	}
	// The caching contract: the payload is a pure function of the spec, so
	// serial and parallel execution must serialize byte-identically.
	serial := runNormalized(t, mk(), 1)
	parallel := runNormalized(t, mk(), 4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("sweep payload depends on parallelism:\n  serial:   %s\n  parallel: %s", serial, parallel)
	}

	var res SweepResult
	if err := json.Unmarshal(serial, &res); err != nil {
		t.Fatal(err)
	}
	if res.Type != "queue" {
		t.Fatalf("type = %q", res.Type)
	}
	if want := []int{2, 4, 8}; len(res.Ns) != len(want) {
		t.Fatalf("ns = %v, want %v", res.Ns, want)
	}
	if len(res.Constructions) != 1 || res.Constructions[0].Construction != "central" {
		t.Fatalf("constructions = %+v", res.Constructions)
	}
	cs := res.Constructions[0]
	if cs.Table == nil || len(cs.Table.Rows()) != 3 {
		t.Fatalf("table rows = %+v, want 3", cs.Table)
	}
	if len(cs.Results) != 3 {
		t.Fatalf("results = %+v, want 3 entries", cs.Results)
	}
}

func TestRunSpecReportSection(t *testing.T) {
	spec := &Spec{Kind: KindReport, Report: &ReportSpec{Experiments: []string{"E1"}, Quick: true}}
	out := runNormalized(t, spec, 2)
	var res ReportResult
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Quick || len(res.Experiments) != 1 {
		t.Fatalf("result = %+v", res)
	}
	sec := res.Experiments[0]
	if sec.Name != "E1" {
		t.Fatalf("section name = %q", sec.Name)
	}
	if !strings.Contains(sec.Markdown, "E1") {
		t.Fatalf("markdown lacks the section heading:\n%s", sec.Markdown)
	}
	if len(sec.Tables) == 0 {
		t.Fatal("section captured no tables")
	}
}

func TestRunSpecExploreFuzz(t *testing.T) {
	mk := func() *Spec {
		return &Spec{Kind: KindExplore, Explore: &ExploreSpec{
			Mode: "fuzz", Samples: 50, Seed: 1,
		}}
	}
	a := runNormalized(t, mk(), 1)
	b := runNormalized(t, mk(), 4)
	if !bytes.Equal(a, b) {
		t.Fatalf("fuzz payload depends on parallelism:\n  a: %s\n  b: %s", a, b)
	}
	var res ExploreResult
	if err := json.Unmarshal(a, &res); err != nil {
		t.Fatal(err)
	}
	if res.Mode != "fuzz" || res.Samples != 50 {
		t.Fatalf("result = %+v", res)
	}
	if res.Failures == nil {
		t.Fatal("failures must serialize as [], not null")
	}
	if !bytes.Contains(a, []byte(`"failures":[]`)) {
		t.Fatalf("payload lacks an explicit empty failures array: %s", a)
	}
}

func TestRunSpecProgressPhases(t *testing.T) {
	spec := &Spec{Kind: KindSweep, Sweep: &SweepSpec{Type: "queue", MaxN: 4}}
	if _, err := spec.ID(); err != nil {
		t.Fatal(err)
	}
	p := NewProgress()
	if _, err := runSpec(context.Background(), spec, p, 2); err != nil {
		t.Fatal(err)
	}
	p.Close()
	// One phase per construction, plus the initial "queued".
	var phases []string
	for _, d := range p.Durations() {
		phases = append(phases, d.Phase)
	}
	want := append([]string{"queued"}, "group-update", "herlihy", "central")
	if strings.Join(phases, ",") != strings.Join(want, ",") {
		t.Fatalf("phases = %v, want %v", phases, want)
	}
}

// TestRunSpecPhasesAndSpans pins what a local run of each kind shows a
// watcher: its progress events, in order, and its spans, in the order
// they end, each a child of the job's span. For the shardable kinds this
// is the one-part run of their coordinate map, which must report per
// construction (sweep) or per batch like a dedicated runner would.
func TestRunSpecPhasesAndSpans(t *testing.T) {
	cases := []struct {
		name   string
		spec   *Spec
		events []string
		spans  []string
	}{
		{"report", &Spec{Kind: KindReport, Report: &ReportSpec{Experiments: []string{"E2", "E1"}, Quick: true}},
			[]string{"E1 0/2", "E1 1/2", "E2 1/2", "E2 2/2"},
			[]string{"experiment E1 {quick=true}", "experiment E2 {quick=true}"}},
		{"sweep", &Spec{Kind: KindSweep, Sweep: &SweepSpec{Type: "queue", MaxN: 4}},
			[]string{"group-update 0/3", "group-update 1/3", "herlihy 1/3", "herlihy 2/3", "central 2/3", "central 3/3"},
			[]string{
				"sweep group-update {construction=group-update,type=queue}",
				"sweep herlihy {construction=herlihy,type=queue}",
				"sweep central {construction=central,type=queue}",
			}},
		{"explore fuzz", &Spec{Kind: KindExplore, Explore: &ExploreSpec{Mode: "fuzz", Alg: "central", Samples: 23, Seed: 5, Budget: 3}},
			[]string{"fuzz 0/1", "fuzz 1/1"},
			[]string{"explore fuzz {alg=central,mode=fuzz}"}},
		{"explore exhaustive", &Spec{Kind: KindExplore, Explore: &ExploreSpec{Mode: "exhaustive", Alg: "central", N: 2}},
			[]string{"exhaustive 0/1", "exhaustive 1/1"},
			[]string{"explore exhaustive {alg=central,mode=exhaustive}"}},
		{"campaign round", &Spec{Kind: KindCampaignRound, CampaignRound: &campaign.RoundSpec{
			Campaign: campaign.Spec{Alg: "group-update", Object: "fetch-increment", N: 2, BatchSize: 24, MaxCorpus: 8},
			Round:    1, Corpus: [][]int{{0, 1, 0, 1}, {1, 1, 0}}}},
			[]string{"campaign-round 0/1", "campaign-round 1/1"},
			[]string{"campaign round batch {alg=group-update,round=1}"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.spec.ID(); err != nil {
				t.Fatal(err)
			}
			tr := obs.NewTracer(0)
			ctx, root := tr.Start(context.Background(), "job")
			p := NewProgress()
			ch, cancel := p.Subscribe()
			defer cancel()
			if _, err := runSpec(ctx, tc.spec, p, 2); err != nil {
				t.Fatal(err)
			}
			p.Close()
			root.End()
			var events []string
			for e := range ch {
				events = append(events, fmt.Sprintf("%s %d/%d", e.Phase, e.Done, e.Total))
			}
			var spans []string
			all := tr.Spans()
			rootID := all[len(all)-1].SpanID
			for _, sd := range all[:len(all)-1] {
				if sd.ParentID != rootID {
					t.Errorf("span %q is not a child of the job span", sd.Name)
				}
				var attrs []string
				for k, v := range sd.Attrs {
					attrs = append(attrs, k+"="+v)
				}
				sort.Strings(attrs)
				spans = append(spans, sd.Name+" {"+strings.Join(attrs, ",")+"}")
			}
			if got, want := strings.Join(events, "; "), strings.Join(tc.events, "; "); got != want {
				t.Errorf("progress events:\n got %s\nwant %s", got, want)
			}
			if got, want := strings.Join(spans, "; "), strings.Join(tc.spans, "; "); got != want {
				t.Errorf("spans:\n got %s\nwant %s", got, want)
			}
		})
	}
}
