package main

import (
	"strings"
	"testing"
)

func mkOutput(cpu string, benches map[string]map[string]float64) *Output {
	out := &Output{Env: map[string]string{"cpu": cpu}}
	for _, name := range unitKeys(benches) {
		out.Benchmarks = append(out.Benchmarks, &Benchmark{Name: name, Mean: benches[name]})
	}
	return out
}

func unitKeys(m map[string]map[string]float64) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	// Insertion order is irrelevant to compare(); keep it simple.
	return names
}

func TestClassify(t *testing.T) {
	cases := []struct {
		unit   string
		class  metricClass
		higher bool
	}{
		{"ns/op", classTiming, false},
		{"steps/sec", classTiming, true},
		{"runs/sec", classTiming, true},
		{"B/op", classAlloc, false},
		{"allocs/op", classAlloc, false},
		{"winner-steps", classExact, false},
		{"log4n-bound", classExact, false},
		{"forced-steps/op", classExact, false},
	}
	for _, tc := range cases {
		c, higher := classify(tc.unit)
		if c != tc.class || higher != tc.higher {
			t.Errorf("classify(%q) = (%v, %t), want (%v, %t)", tc.unit, c, higher, tc.class, tc.higher)
		}
	}
}

func TestCompareGatesClasses(t *testing.T) {
	cfg := compareConfig{timeTol: 1.0, allocTol: 0.35, sameCPU: true}
	baseline := mkOutput("cpuA", map[string]map[string]float64{
		"BenchmarkHot-4": {"ns/op": 100, "allocs/op": 10, "winner-steps": 8, "steps/sec": 1000},
	})

	// Within tolerance on every class: no violations.
	ok := mkOutput("cpuA", map[string]map[string]float64{
		"BenchmarkHot-4": {"ns/op": 150, "allocs/op": 12, "winner-steps": 8, "steps/sec": 700},
	})
	if v, _ := compare(baseline, ok, cfg); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}

	// Each class tripped: timing 2.5x slower, throughput under half,
	// allocs +50%, and a deterministic metric off by one.
	bad := mkOutput("cpuA", map[string]map[string]float64{
		"BenchmarkHot-4": {"ns/op": 250, "allocs/op": 15, "winner-steps": 9, "steps/sec": 400},
	})
	v, _ := compare(baseline, bad, cfg)
	if len(v) != 4 {
		t.Fatalf("got %d violations, want 4: %v", len(v), v)
	}
	for _, viol := range v {
		if !viol.gating {
			t.Errorf("violation %v should gate on the same CPU", viol)
		}
	}

	// Cross-machine: the timing violations downgrade to warnings, the
	// alloc and exact ones still gate.
	cfg.sameCPU = false
	v, _ = compare(baseline, bad, cfg)
	gating := 0
	for _, viol := range v {
		cls, _ := classify(viol.unit)
		if viol.gating != (cls != classTiming) {
			t.Errorf("violation %v: gating = %t on cross-machine compare", viol, viol.gating)
		}
		if viol.gating {
			gating++
		}
	}
	if gating != 2 {
		t.Fatalf("got %d gating violations cross-machine, want 2 (allocs, exact)", gating)
	}
}

func TestCompareImprovementsDoNotGate(t *testing.T) {
	cfg := compareConfig{timeTol: 1.0, allocTol: 0.35, sameCPU: true}
	baseline := mkOutput("cpuA", map[string]map[string]float64{
		"BenchmarkHot-4": {"ns/op": 100, "allocs/op": 10, "steps/sec": 1000},
	})
	// 10x faster, zero allocs, 10x throughput: improvements never fail.
	better := mkOutput("cpuA", map[string]map[string]float64{
		"BenchmarkHot-4": {"ns/op": 10, "allocs/op": 0, "steps/sec": 10000},
	})
	if v, _ := compare(baseline, better, cfg); len(v) != 0 {
		t.Fatalf("improvements flagged as regressions: %v", v)
	}
}

func TestCompareSkipsDisjointBenchmarks(t *testing.T) {
	cfg := compareConfig{timeTol: 1.0, allocTol: 0.35, sameCPU: true}
	baseline := mkOutput("cpuA", map[string]map[string]float64{
		"BenchmarkOld-4":    {"ns/op": 100},
		"BenchmarkShared-4": {"ns/op": 100},
	})
	current := mkOutput("cpuA", map[string]map[string]float64{
		"BenchmarkShared-4": {"ns/op": 120},
		"BenchmarkNew-4":    {"ns/op": 5},
	})
	v, skipped := compare(baseline, current, cfg)
	if len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
	if len(skipped) != 2 {
		t.Fatalf("skipped = %v, want baseline-only and current-only entries", skipped)
	}
	joined := strings.Join(skipped, "; ")
	if !strings.Contains(joined, "BenchmarkOld-4 (baseline only)") ||
		!strings.Contains(joined, "BenchmarkNew-4 (current only)") {
		t.Fatalf("skipped = %v", skipped)
	}
}

func TestCompareMissingUnitSkipped(t *testing.T) {
	cfg := compareConfig{timeTol: 1.0, allocTol: 0.35, sameCPU: true}
	baseline := mkOutput("cpuA", map[string]map[string]float64{
		"BenchmarkHot-4": {"ns/op": 100, "steps/sec": 1000},
	})
	// -benchmem off in the current run: units absent on one side are not
	// violations.
	current := mkOutput("cpuA", map[string]map[string]float64{
		"BenchmarkHot-4": {"ns/op": 100},
	})
	if v, _ := compare(baseline, current, cfg); len(v) != 0 {
		t.Fatalf("missing unit flagged: %v", v)
	}
}

func TestRunCompareReport(t *testing.T) {
	cfg := compareConfig{timeTol: 1.0, allocTol: 0.35, sameCPU: true}
	baseline := mkOutput("cpuA", map[string]map[string]float64{
		"BenchmarkHot-4": {"winner-steps": 8},
	})
	bad := mkOutput("cpuA", map[string]map[string]float64{
		"BenchmarkHot-4": {"winner-steps": 9},
	})
	var sb strings.Builder
	if failures := runCompare(&sb, baseline, bad, cfg); failures != 1 {
		t.Fatalf("failures = %d, want 1; report:\n%s", failures, sb.String())
	}
	if !strings.Contains(sb.String(), "FAIL: BenchmarkHot-4 winner-steps") {
		t.Fatalf("report missing failure line:\n%s", sb.String())
	}
	sb.Reset()
	if failures := runCompare(&sb, baseline, baseline, cfg); failures != 0 {
		t.Fatalf("self-compare failed:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "bench-compare: ok") {
		t.Fatalf("report missing ok line:\n%s", sb.String())
	}
}

func TestRegressedZeroBaseline(t *testing.T) {
	if regressed(0, 5, 1.0, false) != true {
		t.Error("nonzero over a zero lower-is-better baseline must regress")
	}
	if regressed(0, 0, 1.0, false) {
		t.Error("zero over zero is not a regression")
	}
	if regressed(0, 5, 1.0, true) {
		t.Error("throughput appearing where baseline had none is not a regression")
	}
}

func TestProcsSuffix(t *testing.T) {
	cases := []struct {
		names []string
		want  string
	}{
		{[]string{"BenchmarkA-2", "BenchmarkB/n=4-2"}, "-2"},
		{[]string{"BenchmarkA-16"}, "-16"},
		// GOMAXPROCS=1: go test appends nothing.
		{[]string{"BenchmarkA", "BenchmarkB/n=4", "BenchmarkC/set-register/n=4"}, ""},
		// Names that disagree carry no common suffix.
		{[]string{"BenchmarkA-2", "BenchmarkB-4"}, ""},
		{[]string{"BenchmarkA-2", "BenchmarkB"}, ""},
		{[]string{"BenchmarkA-"}, ""},
		{nil, ""},
	}
	for _, tc := range cases {
		out := &Output{}
		for _, name := range tc.names {
			out.Benchmarks = append(out.Benchmarks, &Benchmark{Name: name})
		}
		if got := procsSuffix(out); got != tc.want {
			t.Errorf("procsSuffix(%v) = %q, want %q", tc.names, got, tc.want)
		}
	}
}

// TestCompareAcrossGOMAXPROCS: a baseline recorded at GOMAXPROCS=2 still
// gates a run at 4 or at 1 — names match without the suffix — but, as on
// a different CPU model, timing only warns.
func TestCompareAcrossGOMAXPROCS(t *testing.T) {
	baseline := mkOutput("cpuA", map[string]map[string]float64{
		"BenchmarkHot-2":          {"ns/op": 100, "allocs/op": 10, "runs": 607},
		"BenchmarkSub/n=4-2":      {"ns/op": 100},
		"BenchmarkBaselineOnly-2": {"ns/op": 100},
	})
	for _, suffix := range []string{"-4", ""} {
		current := mkOutput("cpuA", map[string]map[string]float64{
			"BenchmarkHot" + suffix:     {"ns/op": 300, "allocs/op": 20, "runs": 608},
			"BenchmarkSub/n=4" + suffix: {"ns/op": 100},
		})
		cfg := compareConfig{timeTol: 1.0, allocTol: 0.35, sameCPU: sameMachine(baseline, current)}
		if cfg.sameCPU {
			t.Fatalf("suffix %q: a GOMAXPROCS difference counted as the same machine", suffix)
		}
		v, skipped := compare(baseline, current, cfg)
		if len(skipped) != 1 || skipped[0] != "BenchmarkBaselineOnly-2 (baseline only)" {
			t.Fatalf("suffix %q: skipped = %v, want only the baseline-only benchmark", suffix, skipped)
		}
		gating := map[string]bool{}
		for _, viol := range v {
			gating[viol.unit] = viol.gating
		}
		if len(v) != 3 || !gating["allocs/op"] || !gating["runs"] || gating["ns/op"] {
			t.Fatalf("suffix %q: violations %v, want gating allocs/op and runs, warn-only ns/op", suffix, v)
		}
	}
}

func TestSameMachine(t *testing.T) {
	at := func(cpu, suffix string) *Output {
		return mkOutput(cpu, map[string]map[string]float64{"BenchmarkHot" + suffix: {"ns/op": 1}})
	}
	cases := []struct {
		baseline, current *Output
		want              bool
	}{
		{at("cpuA", "-2"), at("cpuA", "-2"), true},
		{at("cpuA", ""), at("cpuA", ""), true},
		{at("cpuA", "-2"), at("cpuA", "-4"), false},
		{at("cpuA", "-2"), at("cpuA", ""), false},
		{at("cpuA", "-2"), at("cpuB", "-2"), false},
		{at("", "-2"), at("", "-2"), false},
	}
	for i, tc := range cases {
		if got := sameMachine(tc.baseline, tc.current); got != tc.want {
			t.Errorf("case %d: sameMachine = %t, want %t", i, got, tc.want)
		}
	}
}
