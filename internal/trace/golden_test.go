package trace

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"jayanti98/internal/algos/tas"
	"jayanti98/internal/core"
	"jayanti98/internal/lowerbound"
	"jayanti98/internal/machine"
	"jayanti98/internal/wakeup"
)

// Regenerate the golden files after an *intentional* schedule change with:
//
//	go test ./internal/trace/ -run Golden -update
var updateGolden = flag.Bool("update", false, "rewrite the golden trace files")

// TestGoldenTraces pins the adversary's exact schedule for every wakeup
// algorithm at small n: a committed canonical trace per algorithm. Any
// accidental change to phase ordering, UP bookkeeping, or the step
// renderer shows up as a diff naming the first divergent round.
//
// Every case runs twice, once on each execution engine: the algorithms
// all carry compiled chunks, so the bytecode VM (the algorithm itself)
// must reproduce the trace of its direct-style body on the goroutine
// engine (machine.New over its Run) byte for byte. (-update regenerates
// from the goroutine engine and then checks the VM against the result.)
func TestGoldenTraces(t *testing.T) {
	cases := []struct {
		alg  machine.Algorithm
		n    int
		seed int64
		// ta overrides the default parity-based toss helper. The TAS cases
		// need it: (pid+j+seed)%2 gives same-parity pids identical toss
		// streams, which livelocks a TV match between them forever.
		ta   machine.TossAssignment
		file string
	}{
		{wakeup.SetRegister(), 3, 0, nil, "set_register_n3.json"},
		{wakeup.SetRegister(), 4, 3, nil, "set_register_n4_seed3.json"},
		{wakeup.DoubleRegister(), 4, 0, nil, "double_register_n4.json"},
		{wakeup.MoveCourier(), 4, 0, nil, "move_courier_n4.json"},
		// The zoo's randomized TAS protocols under the same adversary, with
		// hashed tosses (the protocols are randomized, not wait-free, so
		// degenerate toss streams livelock them).
		{tas.TrompVitanyi(), 2, 0, lowerbound.HashTosses(3), "tas_tv_n2_seed3.json"},
		{tas.Tournament(), 4, 0, lowerbound.HashTosses(3), "tas_tournament_n4_seed3.json"},
	}
	for _, tc := range cases {
		tc := tc
		engines := []struct {
			name string
			alg  machine.Algorithm
		}{
			{"goroutine", machine.New(tc.alg.Name(), tc.alg.Run)},
			{"vm", tc.alg},
		}
		t.Run(tc.file, func(t *testing.T) {
			golden := filepath.Join("testdata", tc.file)
			if *updateGolden {
				got := captureCase(t, engines[0].alg, tc.n, tc.seed, tc.ta)
				data, err := got.MarshalIndent()
				if err != nil {
					t.Fatal(err)
				}
				data = append(data, '\n')
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			wantTrace, err := Parse(want)
			if err != nil {
				t.Fatal(err)
			}
			for _, eng := range engines {
				t.Run(eng.name, func(t *testing.T) {
					got := captureCase(t, eng.alg, tc.n, tc.seed, tc.ta)
					data, err := got.MarshalIndent()
					if err != nil {
						t.Fatal(err)
					}
					data = append(data, '\n')
					// Semantic diff first: it pinpoints the first divergent round.
					if d := Diff(wantTrace, got); d != "" {
						t.Fatalf("schedule changed vs golden (regenerate with -update if intentional): %s", d)
					}
					// Then bytes, so even renderer-invisible churn is caught.
					if string(normalize(want)) != string(normalize(data)) {
						t.Fatalf("%s [%s]: serialized trace differs from golden despite semantic equality", tc.file, eng.name)
					}
				})
			}
		})
	}
}

// normalize strips a single trailing newline so goldens written before
// the trailing-newline convention still compare equal.
func normalize(b []byte) []byte {
	for len(b) > 0 && b[len(b)-1] == '\n' {
		b = b[:len(b)-1]
	}
	return b
}

// captureCase runs one golden case: with an explicit toss assignment when
// the case carries one, else through the shared parity-based capture.
func captureCase(t *testing.T, alg machine.Algorithm, n int, seed int64, ta machine.TossAssignment) *Trace {
	t.Helper()
	if ta == nil {
		return capture(t, alg, n, seed)
	}
	run, err := core.RunAll(alg, n, ta, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return FromAllRun(run)
}
