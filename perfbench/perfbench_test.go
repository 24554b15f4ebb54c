package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"jayanti98/internal/explore"
	"jayanti98/internal/lowerbound"
	"jayanti98/internal/machine"
	"jayanti98/internal/wakeup"
)

// The same seed gives the same inputs and the same exact counts;
// different seeds give different fuzz, toss, order and arrival streams.
func TestSeededInputs(t *testing.T) {
	if a, b := newServicePlan(7, 3), newServicePlan(7, 3); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different service plans")
	}
	a, b := newServicePlan(7, 3), newServicePlan(8, 3)
	if reflect.DeepEqual(a.arrivals, b.arrivals) || reflect.DeepEqual(a.colds, b.colds) {
		t.Fatal("different seeds gave the same arrival schedule or cold specs")
	}
	for i, arr := range a.arrivals {
		if arr.cold != (i%coldEvery == coldAt) {
			t.Fatalf("arrival %d: cold=%v breaks the fixed class pattern", i, arr.cold)
		}
	}

	kinds := newAdversary(7, paperPins).kinds
	if !reflect.DeepEqual(cycleOrder(kinds, 7, 3), cycleOrder(kinds, 7, 3)) {
		t.Fatal("same seed gave different cycle orders")
	}
	differ := false
	for c := 0; c < 8; c++ {
		differ = differ || !reflect.DeepEqual(cycleOrder(kinds, 7, c), cycleOrder(kinds, 8, c))
	}
	if !differ {
		t.Fatal("different seeds gave the same cycle orders")
	}

	if tossSeed(7, 0) != tossSeed(7, 0) || tossSeed(7, 0) == tossSeed(8, 0) {
		t.Fatal("E2 toss seeds do not follow the workload seed")
	}
	e2 := func(seed int64) lowerbound.ExpectedResult {
		r, err := lowerbound.ExpectedComplexity(func(int) machine.Algorithm { return wakeup.DoubleRegister() }, 8, 6, tossSeed(seed, 0))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if a, b := e2(7), e2(7); !reflect.DeepEqual(a, b) {
		t.Fatalf("E2 with one seed: %+v then %+v", a, b)
	}

	fuzz := func(seed int64) int {
		rep, err := explore.Fuzz(fuzzBatches[0].cfg, explore.FuzzOptions{Samples: 4, Seed: fuzzSeed(seed, 0), Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return rep.TotalSteps
	}
	if fuzz(7) != fuzz(7) || fuzz(7) == fuzz(8) {
		t.Fatalf("fuzz streams: seed 7 gives %d then %d steps, seed 8 gives %d", fuzz(7), fuzz(7), fuzz(8))
	}
}

func TestPercentileReportsCountAndRefusesThinTail(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 90); err == nil {
		t.Fatal("p90 of 99 samples (9 beyond it) was not refused")
	}
	xs = append(xs, 100)
	p, err := percentile(xs, 90)
	if err != nil {
		t.Fatal(err)
	}
	if p.Samples != 100 || math.Abs(p.Value-90.1) > 1e-9 {
		t.Fatalf("p90 of 1..100 = %+v, want value 90.1 from 100 samples", p)
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Fatal("p99 of 100 samples was not refused")
	}
}

// quartiles must match Python's statistics.quantiles(xs, n=4), which is
// how the spread of repeated runs is judged.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5}, // Python extrapolates past the ends
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// A deliberately wrong pin fails the op it checks, so error_rate rises
// above zero and the run is not correct.
func TestWrongPinRaisesErrorRate(t *testing.T) {
	pins := paperPins
	pins.e1WinnerSteps++
	kinds := newAdversary(1, pins).kinds
	ph := runCycles(kinds, 1, 0, 0, 0, nil)
	failed, first := failures(ph.recs)
	if want := kinds[0].weight; failed != want || !strings.Contains(first.Error(), "winner-steps=512") {
		t.Fatalf("wrong E1 pin: %d of %d ops failed (first %v), want the %d E1 ops", failed, len(ph.recs), first, want)
	}
	if res := newResult(len(ph.recs), failed, first, nil); res.Correct || float64(res.Failed)/float64(res.Attempted) <= 0 {
		t.Fatalf("wrong pin left the run correct: %+v", res)
	}

	golden := append([]exhaustiveRef(nil), goldenPins...)
	golden[0].runs++
	w := newExplore(1, golden)
	if err := w.setup(); err == nil {
		t.Fatal("set-up's warm-up passed a wrong golden count")
	}
	ph = runCycles(w.kinds, 1, 0, 0, 0, nil)
	if failed, _ := failures(ph.recs); failed != exploreWeights[0] {
		t.Fatalf("wrong golden: %d ops failed, want %d", failed, exploreWeights[0])
	}
}

// A service answer is held to the bytes of its reference.
func TestServiceAnswerCheck(t *testing.T) {
	plan := newServicePlan(1, 1)
	spec := plan.hits[0]
	good := []byte(`{"mode":"fuzz","budget":0,"samples":` + strconv.Itoa(spec.Explore.Samples) + `,"totalSteps":99,"failures":[]}`)
	r := &serviceRun{plan: plan, hitBytes: [][]byte{good}, refCold: map[int][]byte{}}
	hit := arrival{spec: 0}
	if steps, err := r.checkAnswer(hit, spec, jobView{Status: "done", Cached: true, Result: good}); err != nil || steps != 99 {
		t.Fatalf("good answer: steps %d, %v", steps, err)
	}
	for name, v := range map[string]jobView{
		"other bytes":  {Status: "done", Cached: true, Result: bytes.Replace(good, []byte("99"), []byte("98"), 1)},
		"not cached":   {Status: "done", Result: good},
		"failed":       {Status: "failed", Cached: true, Result: good},
		"found a bug":  {Status: "done", Cached: true, Result: bytes.Replace(good, []byte(`"failures":[]`), []byte(`"failures":[{"kind":"x"}]`), 1)},
		"wrong sample": {Status: "done", Cached: true, Result: bytes.Replace(good, []byte(`"samples":`), []byte(`"samples":1`), 1)},
	} {
		if _, err := r.checkAnswer(hit, spec, v); err == nil {
			t.Errorf("%s: answer accepted", name)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"jayanti98/internal/core.RunAll"}, "core"},
		{[]string{"jayanti98/internal/algos/bwllsc.(*Memory).Apply"}, "llsc"},
		{[]string{"jayanti98/internal/universal.(*GroupUpdate).Invoke"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm"}, "runtime.sched"},
		{[]string{"runtime.mallocgc", "jayanti98/internal/core.RunAll"}, "runtime.other"},
		{[]string{"internal/runtime/maps.(*Map).getWithKey"}, "runtime.other"},
		{[]string{"net/http.(*conn).serve"}, "stdlib"},
		{[]string{"main.main"}, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// A real CPU profile decodes and folds into shares that sum to one.
func TestCPUSharesOfRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := uint64(1)
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if total < 0.999 || total > 1.001 || shares["other"] < 0.5 {
		t.Fatalf("x=%d: shares sum to %v, spin loop (other) %v", x, total, shares["other"])
	}
}

// BENCHMARK.json lists exactly the metrics the program prints, with the
// same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	for _, list := range []struct {
		json []struct{ Name, Unit string }
		prog []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(list.json) != len(list.prog) {
			t.Errorf("BENCHMARK.json lists %d metrics, program %d", len(list.json), len(list.prog))
			continue
		}
		for i, m := range list.json {
			if m.Name != list.prog[i].name || m.Unit != list.prog[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, list.prog[i].name, list.prog[i].unit)
			}
		}
	}
}
