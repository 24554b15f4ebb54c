// Command perfbench is the repository benchmark: it runs one named
// workload under a seed for a fixed time, checks every op's output
// against an exact reference, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as one JSON object on the last line of
// standard output. BENCHMARK.json at the repository root lists the
// workloads and metrics; README.md in this directory explains them.
//
//	bash perfbench/run.sh --workload adversary --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload explore --steadiness 5 --seconds 30
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      bool
	buildDir   string // build outputs and scratch files (spans, cache dirs)
	steadiness int
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(o options) (*result, error){
	"adversary": func(o options) (*result, error) { return newAdversary(o.seed, paperPins).run(o) },
	"explore":   func(o options) (*result, error) { return newExplore(o.seed, goldenPins).run(o) },
	"service":   runService,
}

// endToEnd lists the end-to-end metrics (printed with -trace 0), with
// their units. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"sim_steps_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
}

// perLayer lists the per-layer metrics (printed with -trace 1). A
// workload that bypasses a layer reports 0 for it.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"error_rate", "ratio"},
		{"trace.overhead_pct", "%"},
		{"runtime.alloc_mb_per_op", "MB"},
		{"core.ns_per_step", "ns"},
		{"core.allocs_per_step", "count"},
		{"core.bytes_per_step", "B"},
		{"core.runall_ms", "ms"},
		{"core.rounds", "count"},
		{"core.steps", "count"},
		{"core.up_max", "count"},
		{"core.check_ms", "ms"},
		{"core.subrun_ms", "ms"},
		{"core.indist_ms", "ms"},
		{"moveplan.secretive_ms", "ms"},
		{"shmem.replay_ns_per_op", "ns"},
		{"explore.dfs_runs_per_s", "1/s"},
		{"explore.ns_per_run", "ns"},
		{"explore.allocs_per_run", "count"},
		{"explore.bytes_per_run", "B"},
		{"explore.states", "count"},
		{"explore.useful_ratio", "ratio"},
		{"explore.truncated", "count"},
		{"explore.fuzz_steps_per_s", "1/s"},
		{"llsc.bw_over_native", "ratio"},
		{"campaign.round_ms", "ms"},
		{"campaign.apply_ms", "ms"},
		{"campaign.corpus_len", "count"},
		{"service.cold_ms_p50", "ms"},
		{"service.cold_ms_p90", "ms"},
		{"service.hit_ms_p50", "ms"},
		{"service.hit_ms_p99", "ms"},
		{"service.slo_miss_ratio", "ratio"},
		{"http.submit_ms_p50", "ms"},
		{"http.submit_ms_p99", "ms"},
		{"jobs.queue_wait_ms_p50", "ms"},
		{"jobs.queue_wait_ms_p90", "ms"},
		{"jobs.run_ms_p50", "ms"},
		{"jobs.run_ms_p90", "ms"},
		{"jobs.notify_ms_p50", "ms"},
		{"jobs.cache_hit_ratio", "ratio"},
		{"jobs.cache_disk_hits", "count"},
		{"store.journal_writes_per_job", "count"},
		{"store.boot_replay_ms", "ms"},
		{"server.cpu_ms_per_request", "ms"},
		{"server.rss_peak_mb", "MB"},
		{"gen.late_ms_p99", "ms"},
	}
	for _, layer := range cpuLayers {
		name := layer + ".cpu_share"
		if rest, ok := strings.CutPrefix(layer, "runtime."); ok {
			name = "runtime." + rest + "_cpu_share"
		}
		defs = append(defs, metricDef{name, "ratio"})
	}
	return defs
}()

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last line of standard
// output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	raw      map[string]float64
	firstErr error
	notes    []string // sample counts behind the percentiles, printed above the result
}

// newResult bundles a run's counts and raw metric values. correct holds
// when no op failed.
func newResult(attempted, failed int, firstErr error, raw map[string]float64) *result {
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, raw: raw, firstErr: firstErr}
}

// finish fills Metrics with exactly the metric set of the mode, in its
// units; a per-layer metric the workload did not produce is 0.
func (r *result) finish(trace bool) error {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.raw[d.name]
		if !ok && !trace {
			return fmt.Errorf("workload produced no %s", d.name)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return nil
}

// logf writes a diagnostic line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// writeSpans stores the traced run's spans under the build directory.
func (o options) writeSpans(tr *tracer) (string, error) {
	dir := filepath.Join(o.buildDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	return path, tr.write(path)
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: adversary, explore or service")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; every input derives from it")
	fs.IntVar(&o.seconds, "seconds", 30, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	fs.StringVar(&o.buildDir, "build-dir", ".bench_build", "directory for build outputs and scratch files")
	fs.IntVar(&o.steadiness, "steadiness", 0, "run the workload this many times (seeds seed, seed+1, …) and report each end-to-end metric's spread")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 || trace < 0 || trace > 1 {
		return o, errors.New("-seconds must be ≥ 1 and -trace 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	// Load comes from one process using no more threads than the machine
	// has CPUs, capped at two.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if o.steadiness > 0 {
		if err := steadiness(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := workloads[o.workload](o)
	if err == nil {
		err = res.finish(o.trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if res.firstErr != nil {
		logf("first failed op: %v", res.firstErr)
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	for _, d := range append(endToEnd, perLayer...) {
		if v, ok := res.Metrics[d.name]; ok {
			fmt.Printf("%-30s %14.6g %s\n", d.name, v.Value, v.Unit)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
