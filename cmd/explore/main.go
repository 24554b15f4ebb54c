// Command explore searches the schedule space of a universal construction
// or of a zoo algorithm (internal/algos) for linearizability violations,
// crashes, and budget (liveness) bugs.
//
// Usage:
//
//	explore [-alg name] [-object workload] [-n N] [-k ops] [-mode exhaustive|fuzz]
//	        [-samples S] [-seed V] [-budget B] [-parallel P] [-out dir]
//	        [-llsc native|bw]
//	explore -replay file.json
//
// Exhaustive mode enumerates every interleaving (with memoized-state
// pruning) and is meant for small n; fuzz mode samples random schedules
// with per-sample derived seeds and persists every failure — shrunk to a
// minimal schedule — as a JSON replay file under -out. A replay file is
// re-executed bit-for-bit with -replay.
//
// The command exits 0 when no failure is found, 1 on a detected failure,
// and 2 on usage or execution errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"jayanti98/internal/algos"
	"jayanti98/internal/explore"
	"jayanti98/internal/universal"
)

type options struct {
	Alg      string
	Object   string
	N        int
	K        int
	Mode     string
	Samples  int
	Seed     int64
	Budget   int
	Parallel int
	Out      string
	Replay   string
	LLSC     string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("explore: ")
	var opts options
	flag.StringVar(&opts.Alg, "alg", "group-update", "system under test: a construction ("+
		strings.Join(universal.Names(), ", ")+") or a zoo algorithm ("+strings.Join(algos.Names(), ", ")+")")
	flag.StringVar(&opts.Object, "object", "fetch-increment", "workload: "+strings.Join(explore.Workloads(), ", "))
	flag.IntVar(&opts.N, "n", 2, "number of processes")
	flag.IntVar(&opts.K, "k", 1, "operations per process")
	flag.StringVar(&opts.Mode, "mode", "exhaustive", "search mode: exhaustive or fuzz")
	flag.IntVar(&opts.Samples, "samples", 200, "fuzz: number of random schedules")
	flag.Int64Var(&opts.Seed, "seed", 1, "fuzz: campaign base seed")
	flag.IntVar(&opts.Budget, "budget", 0, "step budget (0: automatic from the construction's step bound)")
	flag.IntVar(&opts.Parallel, "parallel", 0, "worker goroutines (default one per CPU; 1 = serial)")
	flag.StringVar(&opts.Out, "out", "", "fuzz: directory for JSON replay files of failures")
	flag.StringVar(&opts.Replay, "replay", "", "re-execute a replay file bit-for-bit and exit")
	flag.StringVar(&opts.LLSC, "llsc", "", "shared-memory backend: native or bw")
	flag.Parse()
	if _, err := explore.ParseBackend(opts.LLSC); err != nil {
		log.Print(err)
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the search context: in-flight samples stop
	// dispatching and any running shrink (explore.ShrinkCtx) returns its
	// best schedule so far instead of minimizing to a fixpoint.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	foundFailure, err := run(ctx, os.Stdout, opts)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	if foundFailure {
		os.Exit(1)
	}
}

// run executes one invocation, reporting whether a failure was found.
func run(ctx context.Context, w io.Writer, opts options) (bool, error) {
	if opts.Replay != "" {
		return runReplay(w, opts.Replay)
	}
	cfg := explore.Config{
		Alg:        opts.Alg,
		Object:     opts.Object,
		N:          opts.N,
		OpsPerProc: opts.K,
		Budget:     opts.Budget,
		LLSC:       opts.LLSC,
	}
	switch opts.Mode {
	case "exhaustive":
		rep, err := explore.ExhaustiveCtx(ctx, cfg, opts.Parallel)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(w, "exhaustive %s/%s n=%d k=%d budget=%d: %d states, %d runs, %d complete, %d truncated\n",
			cfg.Alg, cfg.Object, cfg.N, cfg.OpsPerProc, rep.Cfg.Budget, rep.States, rep.Runs, rep.Complete, rep.Truncated)
		if rep.Failure == nil {
			fmt.Fprintf(w, "no failures: every interleaving linearizes\n")
			return false, nil
		}
		fmt.Fprintf(w, "FAILURE %v\nschedule: %v\n", rep.Failure, rep.Record.Schedule)
		for _, ev := range rep.Record.Events {
			fmt.Fprintf(w, "  %s\n", ev)
		}
		return true, nil
	case "fuzz":
		rep, err := explore.FuzzCtx(ctx, cfg, explore.FuzzOptions{
			Samples: opts.Samples,
			Seed:    opts.Seed,
			Workers: opts.Parallel,
			OutDir:  opts.Out,
		})
		if err != nil {
			return false, err
		}
		fmt.Fprintf(w, "fuzz %s/%s n=%d k=%d: %d samples, %d total steps, %d failures\n",
			cfg.Alg, cfg.Object, cfg.N, cfg.OpsPerProc, rep.Samples, rep.TotalSteps, len(rep.Failures))
		for i, f := range rep.Failures {
			fmt.Fprintf(w, "FAILURE sample seed %d: %s: %s\n  schedule (%d steps, shrunk from %d): %v\n",
				f.Seed, f.Kind, f.Detail, len(f.Schedule), f.OriginalLen, f.Schedule)
			if rep.Paths[i] != "" {
				fmt.Fprintf(w, "  replay written to %s\n", rep.Paths[i])
			}
		}
		return len(rep.Failures) > 0, nil
	default:
		return false, fmt.Errorf("unknown mode %q (want exhaustive or fuzz)", opts.Mode)
	}
}

// runReplay re-executes a persisted failure and verifies it reproduces
// bit-for-bit. Reproducing the recorded failure counts as success (exit 0):
// the point of a replay is that the failure is still there.
func runReplay(w io.Writer, path string) (bool, error) {
	rp, err := explore.ReadReplay(path)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "replaying %s: %s/%s n=%d k=%d, %d-step schedule, recorded %s\n",
		path, rp.Alg, rp.Object, rp.N, rp.OpsPerProc, len(rp.Schedule), rp.Kind)
	rec, diff, err := explore.Verify(rp)
	if err != nil {
		return false, err
	}
	if diff != "" {
		return false, fmt.Errorf("replay diverged: %s", diff)
	}
	fmt.Fprintf(w, "reproduced bit-for-bit: %v\n", rec.Failure)
	for _, ev := range rec.Events {
		fmt.Fprintf(w, "  %s\n", ev)
	}
	return false, nil
}
