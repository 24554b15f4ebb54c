// Command lbreport regenerates every experiment of the reproduction
// (E1–E12, see DESIGN.md §3) and writes a markdown report. EXPERIMENTS.md
// records a captured run of this command. The experiments themselves live
// in internal/experiments, shared with the job service (cmd/lbserver).
//
// Usage:
//
//	lbreport [-o report.md] [-quick] [-parallel N] [-timing=false]
//	         [-experiments E1,E2,...] [-cpuprofile cpu.pprof]
//
// -quick shrinks the sweeps for a fast smoke run. -parallel fans each
// experiment's (algorithm, n, sample) grid out over N worker goroutines
// (default: one per CPU; 1 reproduces the serial run). -experiments
// selects a comma-separated subset (default: all, in report order). Apart
// from the wall-clock lines (suppressible with -timing=false), the report
// is byte-identical at every parallelism level: every grid point derives
// its randomness from its own coordinates and tables are rendered only
// after each sweep's barrier. With -o the report is written to a temp file
// in the target directory and atomically renamed into place on success, so
// a failed run never leaves a partial or truncated report behind.
// -cpuprofile captures a CPU profile of the whole run for `go tool pprof`
// (`make profile` wraps this in a quick hotspot report).
package main

import (
	"context"
	"flag"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"

	"jayanti98/internal/experiments"
	"jayanti98/internal/sweep"
)

// options carries the report knobs through run and the experiment funcs.
type options struct {
	// Quick shrinks the sweeps for a fast smoke run.
	Quick bool
	// Parallel is the sweep worker count (≤ 0: one per CPU, 1: serial).
	Parallel int
	// Timing appends a wall-clock line after each experiment.
	Timing bool
	// Experiments selects a subset by name (nil: all).
	Experiments []string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbreport: ")
	out := flag.String("o", "", "write the report to this file (default stdout)")
	quick := flag.Bool("quick", false, "shrink sweeps for a fast run")
	parallel := flag.Int("parallel", 0, "sweep worker goroutines (default one per CPU; 1 = serial)")
	timing := flag.Bool("timing", true, "append a wall-clock line after each experiment")
	names := flag.String("experiments", "", "comma-separated experiment subset: "+strings.Join(experiments.Names(), ","))
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()
	opts := options{Quick: *quick, Parallel: sweep.Workers(*parallel), Timing: *timing}
	if *names != "" {
		opts.Experiments = strings.Split(*names, ",")
	}
	if err := profiled(*cpuprofile, *out, opts); err != nil {
		log.Fatal(err)
	}
}

// profiled runs emit, optionally under CPU profiling. It exists as a
// function (rather than inline in main) so StopCPUProfile runs via defer
// before the exit path — log.Fatal in main would skip it and truncate
// the profile.
func profiled(cpuprofile, out string, opts options) error {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	return emit(out, opts)
}

// emit writes the report to path, or to stdout when path is empty.
func emit(path string, opts options) error {
	if path == "" {
		return run(os.Stdout, opts)
	}
	return writeFileAtomic(path, func(w io.Writer) error { return run(w, opts) })
}

// writeFileAtomic streams gen into a temp file next to path and renames it
// into place only after gen and Close both succeed. On any failure the
// temp file is removed and path is left untouched — a failed run can
// neither truncate nor partially overwrite an existing report.
func writeFileAtomic(path string, gen func(io.Writer) error) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = gen(tmp); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func run(w io.Writer, opts options) error {
	return experiments.WriteReport(context.Background(), w, opts.Experiments,
		experiments.Options{Quick: opts.Quick, Parallel: opts.Parallel}, opts.Timing)
}
