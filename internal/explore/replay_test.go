package explore

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"
)

// TestDecodeReplay checks DecodeReplay against a replay a fuzz campaign
// wrote: the encoded replay decodes to itself, and each way of
// corrupting it is rejected.
func TestDecodeReplay(t *testing.T) {
	rep, err := Fuzz(Config{Alg: "central", Object: "fetch-increment", N: 2, OpsPerProc: 1, Budget: 3},
		FuzzOptions{Samples: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("want 1 failure, got %d", len(rep.Failures))
	}
	good := rep.Failures[0]
	data, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	if rp, err := DecodeReplay(data); err != nil || !reflect.DeepEqual(rp, good) {
		t.Fatalf("DecodeReplay = %+v, %v; want %+v", rp, err, good)
	}
	edits := []struct {
		name string
		edit func(rp *Replay)
	}{
		{"unknown kind", func(rp *Replay) { rp.Kind = "livelock" }},
		{"n zero", func(rp *Replay) { rp.N, rp.Schedule, rp.Tosses = 0, nil, nil }},
		{"ops zero", func(rp *Replay) { rp.OpsPerProc = 0 }},
		{"unknown backend", func(rp *Replay) { rp.LLSC = "bogus" }},
		{"negative budget", func(rp *Replay) { rp.Budget = -1 }},
		{"pid past n", func(rp *Replay) { rp.Schedule = append(slices.Clone(rp.Schedule), rp.N) }},
		{"negative pid", func(rp *Replay) { rp.Schedule = append([]int{-1}, rp.Schedule...) }},
		{"toss rows past n", func(rp *Replay) { rp.Tosses = append(slices.Clone(rp.Tosses), []int64{0}) }},
	}
	for _, tc := range edits {
		rp := *good
		tc.edit(&rp)
		b, err := json.Marshal(&rp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeReplay(b); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	for name, b := range map[string][]byte{
		"truncated":     data[:len(data)/2],
		"trailing data": append(slices.Clone(data), "{}"...),
		"unknown field": append([]byte(`{"engine":"vm",`), data[1:]...),
		"not an object": []byte(`[]`),
	} {
		if _, err := DecodeReplay(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := DecodeReplay(append(slices.Clone(data), " \n"...)); err != nil {
		t.Errorf("trailing white space: %v", err)
	}
}

// FuzzReplay feeds arbitrary bytes to DecodeReplay, the decoder behind
// `explore -replay` and every replay file a fuzz or campaign run writes.
// It must never panic. A small replay it accepts (n ≤ 4, at most 2 ops
// per process, at most 256 scheduled steps) must replay: Verify must not
// panic, and must either reproduce the recorded failure — the run's
// failure kind, schedule and events equal the file's — or report where
// the run diverged. Verify may fail only where the configuration itself
// does not run in this build (RunSchedule fails on it the same way). The
// committed corpus holds a real replay (the budget-3 central campaign of
// TestFuzzGolden), the same replay truncated, with trailing data, an
// unknown field, an unknown failure kind, out-of-range and negative pids,
// n ≤ 0, more toss rows than n, an unknown algorithm and a changed event.
func FuzzReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rp, err := DecodeReplay(data)
		if err != nil {
			return
		}
		if rp.N > 4 || rp.OpsPerProc > 2 || len(rp.Schedule) > 256 {
			return
		}
		rec, diff, err := Verify(rp)
		if err != nil {
			if _, cfgErr := RunSchedule(rp.Config(), nil); cfgErr == nil || cfgErr.Error() != err.Error() {
				t.Fatalf("replay of a runnable configuration failed: %v (configuration: %v)", err, cfgErr)
			}
			return
		}
		if diff != "" {
			return
		}
		if rec.Failure == nil || rec.Failure.Kind != rp.Kind ||
			!slices.Equal(rec.Schedule, rp.Schedule) || !slices.Equal(rec.Events, rp.Events) {
			t.Fatalf("Verify reports a reproduction, but the run differs:\n%+v\nreplay:\n%s", rec, bytes.TrimSpace(data))
		}
	})
}
