// Command bench_json converts `go test -bench` text output into JSON so
// CI can archive one machine-readable benchmark baseline per commit
// (BENCH_<sha>.json artifacts; see the bench job in ci.yml and
// `make bench-json`).
//
//	go test -run='^$' -bench=. -benchmem -count=3 . | go run ./scripts -o BENCH_abc123.json
//
// It understands the standard benchmark line shape — name, iteration
// count, then (value, unit) pairs — including custom units reported via
// b.ReportMetric (the suite reports paper-level units such as
// winner-steps and rounds alongside ns/op). Repeated lines from -count=N
// are kept as separate runs and summarized by a per-unit mean, so a
// diff between two commits' artifacts is a benchmark comparison.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Run is one benchmark result line: the b.N iteration count and every
// (value, unit) pair that followed it.
type Run struct {
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Benchmark groups the runs of one benchmark name (-count=N yields N).
type Benchmark struct {
	Name string `json:"name"`
	Runs []Run  `json:"runs"`
	// Mean holds the per-unit arithmetic mean across runs — the number
	// to compare between two commits' artifacts.
	Mean map[string]float64 `json:"mean"`
}

// Output is the whole artifact: the benchmark environment header lines
// (goos, goarch, pkg, cpu) plus every parsed benchmark.
type Output struct {
	Env        map[string]string `json:"env"`
	Benchmarks []*Benchmark      `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench_json: ")
	out := flag.String("o", "", "write JSON to this file (default stdout)")
	baselinePath := flag.String("compare", "", "compare against this BENCH_<sha>.json baseline instead of converting; exits 1 on regressions")
	againstPath := flag.String("against", "", "with -compare: current artifact JSON (default: parse bench text from stdin)")
	timeTol := flag.Float64("time-tol", 1.0, "relative tolerance for timing metrics (ns/op, */sec)")
	allocTol := flag.Float64("alloc-tol", 0.35, "relative tolerance for allocation metrics (B/op, allocs/op)")
	flag.Parse()
	if *baselinePath != "" {
		baseline, err := loadArtifact(*baselinePath)
		if err != nil {
			log.Fatal(err)
		}
		var current *Output
		if *againstPath != "" {
			current, err = loadArtifact(*againstPath)
		} else {
			current, err = parse(os.Stdin)
		}
		if err != nil {
			log.Fatal(err)
		}
		if len(current.Benchmarks) == 0 {
			log.Fatal("no benchmark results in the current run")
		}
		cfg := compareConfig{
			timeTol:  *timeTol,
			allocTol: *allocTol,
			sameCPU:  sameMachine(baseline, current),
		}
		if failures := runCompare(os.Stdout, baseline, current, cfg); failures > 0 {
			os.Exit(1)
		}
		return
	}
	parsed, err := parse(os.Stdin)
	if err != nil {
		log.Fatal(err)
	}
	if len(parsed.Benchmarks) == 0 {
		log.Fatal("no benchmark lines found on stdin")
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(parsed); err != nil {
		log.Fatal(err)
	}
}

// loadArtifact reads a BENCH_<sha>.json artifact back into an Output.
func loadArtifact(path string) (*Output, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out Output
	if err := json.NewDecoder(f).Decode(&out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &out, nil
}

// parse reads `go test -bench` output and collects environment headers
// and benchmark lines, preserving first-appearance order of names.
func parse(r io.Reader) (*Output, error) {
	out := &Output{Env: map[string]string{}}
	byName := map[string]*Benchmark{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				out.Env[key] = strings.TrimSpace(v)
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		name, run, err := parseBenchLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", line, err)
		}
		if run == nil {
			continue // a benchmark name alone (verbose mode) — no result yet
		}
		b := byName[name]
		if b == nil {
			b = &Benchmark{Name: name}
			byName[name] = b
			out.Benchmarks = append(out.Benchmarks, b)
		}
		b.Runs = append(b.Runs, *run)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, b := range out.Benchmarks {
		b.Mean = meanMetrics(b.Runs)
	}
	return out, nil
}

// parseBenchLine splits one result line into its name, iteration count,
// and (value, unit) pairs. Returns a nil Run for a bare name line.
func parseBenchLine(line string) (string, *Run, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return fields[0], nil, nil
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", nil, fmt.Errorf("iteration count %q: %w", fields[1], err)
	}
	run := &Run{Iterations: iters, Metrics: map[string]float64{}}
	rest := fields[2:]
	if len(rest)%2 != 0 {
		return "", nil, fmt.Errorf("odd value/unit field count %d", len(rest))
	}
	for i := 0; i < len(rest); i += 2 {
		v, err := strconv.ParseFloat(rest[i], 64)
		if err != nil {
			return "", nil, fmt.Errorf("value %q: %w", rest[i], err)
		}
		run.Metrics[rest[i+1]] = v
	}
	return fields[0], run, nil
}

// meanMetrics averages each unit over the runs that report it.
func meanMetrics(runs []Run) map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, r := range runs {
		for unit, v := range r.Metrics {
			sums[unit] += v
			counts[unit]++
		}
	}
	mean := make(map[string]float64, len(sums))
	units := make([]string, 0, len(sums))
	for u := range sums {
		units = append(units, u)
	}
	sort.Strings(units)
	for _, u := range units {
		mean[u] = sums[u] / float64(counts[u])
	}
	return mean
}
