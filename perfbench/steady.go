package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// steadiness runs the workload o.steadiness times, each in a child
// process with its own seed (o.seed, o.seed+1, …), and prints for every
// end-to-end metric the median, the quartiles and the spread — the
// distance between the quartiles as a share of the median — against the
// metric's bound in BENCHMARK.json. A metric whose spread is above a
// third of its bound is not steady enough to gate on.
func steadiness(o options) error {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	for k := 0; k < o.steadiness; k++ {
		seed := o.seed + int64(k)
		cmd := exec.Command(os.Args[0], "-build-dir", o.buildDir,
			"-workload", o.workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(o.seconds), "-trace", "0")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			os.Stderr.Write(stderr.Bytes())
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("seed %d: result line: %w", seed, err)
		}
		if !res.Correct || res.Failed != 0 {
			os.Stderr.Write(stderr.Bytes())
			return fmt.Errorf("seed %d: correct=%v failed=%d of %d", seed, res.Correct, res.Failed, res.Attempted)
		}
		fmt.Printf("seed %-4d", seed)
		for _, d := range endToEnd {
			v := res.Metrics[d.name].Value
			values[d.name] = append(values[d.name], v)
			fmt.Printf(" %s=%.5g", d.name, v)
		}
		fmt.Println()
	}
	fmt.Printf("\n%-16s %12s %12s %12s %8s %7s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, d := range endToEnd {
		q1, q2, q3 := quartiles(values[d.name])
		spread := (q3 - q1) / q2
		bound, ok := bounds[d.name]
		verdict := "no bound"
		switch {
		case !ok:
		case spread <= bound/3:
			verdict = "steady (spread ≤ bound/3)"
		case spread <= bound:
			verdict = "within bound, not steady"
		default:
			verdict = "UNSTEADY (spread > bound)"
		}
		fmt.Printf("%-16s %12.5g %12.5g %12.5g %7.2f%% %6.1f%%  %s\n", d.name, q1, q2, q3, 100*spread, 100*bound, verdict)
	}
	return nil
}

// readBounds reads each end-to-end metric's bound from BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := make(map[string]float64, len(spec.EndToEnd))
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
