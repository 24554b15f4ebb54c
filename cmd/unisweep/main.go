// Command unisweep sweeps the universal constructions across process
// counts and prints the adversary-forced worst-case shared accesses per
// operation, together with a growth classification — the executable form
// of the paper's tightness discussion: the group-update construction stays
// logarithmic while the herlihy baseline grows linearly, and no oblivious
// construction may dip below ⌈log₄ n⌉.
//
// Usage:
//
//	unisweep [-max 256] [-type fetch&increment|queue|stack] [-parallel N]
//
// -parallel fans each construction's n-grid out over N worker goroutines
// through the sweep engine (default: one per CPU; 1 reproduces the serial
// sweep). Output is identical at every parallelism level.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"jayanti98/internal/lowerbound"
	"jayanti98/internal/report"
	"jayanti98/internal/sweep"
	"jayanti98/internal/universal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("unisweep: ")
	maxN := flag.Int("max", 256, "largest process count (sweep doubles from 2)")
	typeName := flag.String("type", "fetch&increment", "object type to instantiate")
	parallel := flag.Int("parallel", 0, "sweep worker goroutines (default one per CPU; 1 = serial)")
	flag.Parse()

	var ns []int
	for n := 2; n <= *maxN; n *= 2 {
		ns = append(ns, n)
	}
	st, err := lowerbound.SweepTypeFor(*typeName)
	if err != nil {
		log.Fatal(err)
	}

	for _, name := range universal.Names() {
		name := name
		mk := func(n int) universal.Construction {
			return universal.Must(universal.New(name, st.New(n), n, 0))
		}
		results, growth, err := lowerbound.SweepConstructionCtx(context.Background(), mk, st.Op, ns, sweep.Workers(*parallel))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s on %s — measured growth: %s\n\n", name, st.New(2).Name(), growth)
		tbl := report.NewTable("n", "forced steps/op", "documented bound", "Ω ⌈log₄ n⌉")
		for _, r := range results {
			bound := "not wait-free"
			if r.StepBound > 0 {
				bound = fmt.Sprintf("%d", r.StepBound)
			}
			tbl.AddRow(r.N, r.MaxSteps, bound, r.LowerBound)
		}
		fmt.Print(tbl)
	}
}
