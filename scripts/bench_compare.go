// Benchmark comparison: diff a current run against a committed
// BENCH_<sha>.json baseline, with a per-metric-class tolerance, and exit
// non-zero on hot-path regressions (`make bench-compare`; the
// bench-compare CI job).
//
// Metric classes:
//
//   - timing (ns/op and every */sec unit): compared with a loose relative
//     tolerance (-time-tol, default 1.0 — i.e. fail only past 2× worse),
//     because wall clock is the noisiest signal. Direction-aware: ns/op
//     regresses upward, */sec regresses downward. When the two artifacts
//     record different CPU models or GOMAXPROCS the comparison is
//     cross-machine and timing violations downgrade to warnings.
//   - allocation (B/op, allocs/op): moderate tolerance (-alloc-tol,
//     default 0.35). Allocation counts are near-deterministic and
//     machine-independent, so these gate even cross-machine.
//   - everything else — the paper-level metrics reported via
//     b.ReportMetric (winner-steps, log4n-bound, forced-steps/op, …) —
//     is deterministic by construction and must match exactly.
//
// Benchmarks are matched by name without the -GOMAXPROCS suffix `go test`
// appends ("BenchmarkExhaustiveExplore-2"), so artifacts from runners with
// different CPU counts still compare. A GOMAXPROCS difference counts as a
// different machine: timing only warns, allocation and exact metrics
// still gate. Benchmarks present in only one artifact are skipped
// (reported, not failed), so a quick hot-path-pattern run can be compared
// against a full-suite baseline.
package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricClass is the tolerance family a unit belongs to.
type metricClass int

const (
	classExact metricClass = iota
	classAlloc
	classTiming
)

// classify maps a metric unit to its tolerance class and direction.
func classify(unit string) (c metricClass, higherIsBetter bool) {
	switch {
	case unit == "ns/op":
		return classTiming, false
	case strings.HasSuffix(unit, "/sec"):
		return classTiming, true
	case unit == "B/op" || unit == "allocs/op":
		return classAlloc, false
	default:
		return classExact, false
	}
}

// compareConfig carries the tolerances and whether timing gates.
type compareConfig struct {
	timeTol  float64 // relative, e.g. 1.0 = allow up to 2× worse
	allocTol float64
	// sameCPU gates timing: a cross-machine diff only warns on wall clock.
	sameCPU bool
}

// procsSuffix returns the -GOMAXPROCS suffix shared by every benchmark
// name in out ("-2"), or "" when the names carry none (go test omits it at
// GOMAXPROCS=1) or do not agree on one.
func procsSuffix(out *Output) string {
	suffix := ""
	for i, b := range out.Benchmarks {
		j := strings.LastIndexByte(b.Name, '-')
		if j < 0 || j == len(b.Name)-1 || strings.Trim(b.Name[j+1:], "0123456789") != "" {
			return ""
		}
		if i > 0 && b.Name[j:] != suffix {
			return ""
		}
		suffix = b.Name[j:]
	}
	return suffix
}

// sameMachine reports whether two artifacts ran on the same CPU model at
// the same GOMAXPROCS, the condition for timing to gate.
func sameMachine(baseline, current *Output) bool {
	cpu := baseline.Env["cpu"]
	return cpu != "" && cpu == current.Env["cpu"] && procsSuffix(baseline) == procsSuffix(current)
}

// violation is one metric that regressed past its class tolerance.
type violation struct {
	bench, unit       string
	baseline, current float64
	gating            bool // false: cross-machine timing, warn only
}

func (v violation) String() string {
	kind := "FAIL"
	if !v.gating {
		kind = "warn (cross-machine timing)"
	}
	return fmt.Sprintf("%s: %s %s: baseline %.4g, current %.4g (%+.1f%%)",
		kind, v.bench, v.unit, v.baseline, v.current, 100*(v.current-v.baseline)/v.baseline)
}

// regressed reports whether cur is worse than base beyond tol, in the
// direction that matters for the unit. A zero baseline gates exactly.
func regressed(base, cur, tol float64, higherIsBetter bool) bool {
	if base == 0 {
		return cur != 0 && !higherIsBetter
	}
	if higherIsBetter {
		return cur < base/(1+tol)
	}
	return cur > base*(1+tol)
}

// compare diffs current against baseline and returns every violation plus
// the skipped benchmark names (present in only one artifact). Failures are
// the gating subset of the violations.
func compare(baseline, current *Output, cfg compareConfig) (violations []violation, skipped []string) {
	baseSuffix, curSuffix := procsSuffix(baseline), procsSuffix(current)
	curByName := map[string]*Benchmark{}
	for _, b := range current.Benchmarks {
		curByName[strings.TrimSuffix(b.Name, curSuffix)] = b
	}
	seen := map[*Benchmark]bool{}
	for _, base := range baseline.Benchmarks {
		cur := curByName[strings.TrimSuffix(base.Name, baseSuffix)]
		if cur == nil {
			skipped = append(skipped, base.Name+" (baseline only)")
			continue
		}
		seen[cur] = true
		for _, unit := range unitNames(base.Mean) {
			bv := base.Mean[unit]
			cv, ok := cur.Mean[unit]
			if !ok {
				continue
			}
			class, higherBetter := classify(unit)
			var bad, gating bool
			switch class {
			case classExact:
				// Means of deterministic per-run values; exact up to float
				// representation.
				bad = math.Abs(cv-bv) > 1e-9*math.Max(math.Abs(bv), 1)
				gating = true
			case classAlloc:
				bad = regressed(bv, cv, cfg.allocTol, false)
				gating = true
			case classTiming:
				bad = regressed(bv, cv, cfg.timeTol, higherBetter)
				gating = cfg.sameCPU
			}
			if bad {
				violations = append(violations, violation{
					bench: base.Name, unit: unit, baseline: bv, current: cv, gating: gating,
				})
			}
		}
	}
	for _, b := range current.Benchmarks {
		if !seen[b] {
			skipped = append(skipped, b.Name+" (current only)")
		}
	}
	return violations, skipped
}

// unitNames returns the unit keys of a mean map in sorted order so the
// report (and any test of it) is deterministic.
func unitNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for u := range m {
		names = append(names, u)
	}
	sort.Strings(names)
	return names
}

// runCompare prints the comparison report to w and returns the number of
// gating failures.
func runCompare(w io.Writer, baseline, current *Output, cfg compareConfig) int {
	violations, skipped := compare(baseline, current, cfg)
	failures := 0
	for _, v := range violations {
		fmt.Fprintln(w, v)
		if v.gating {
			failures++
		}
	}
	for _, s := range skipped {
		fmt.Fprintf(w, "skip: %s\n", s)
	}
	if failures == 0 {
		fmt.Fprintf(w, "bench-compare: ok (%d warnings, %d skipped)\n", len(violations)-failures, len(skipped))
	} else {
		fmt.Fprintf(w, "bench-compare: %d regression(s) past tolerance\n", failures)
	}
	return failures
}
