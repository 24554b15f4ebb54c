// Command wakeupsim runs one wakeup algorithm against the adversary
// scheduler of Figure 2 and prints the run's anatomy: per-round groups and
// steps, who returned what, the forced step counts against the ⌈log₄ n⌉
// bound, and the outcome of every checkable lemma. With -catch it also
// attempts the Theorem 6.1 catch (build S = UP(winner, steps) and exhibit
// the violating (S,A)-run) — try it on -alg cheater. With -json the same
// anatomy is emitted as one JSON object on stdout for scripted consumers.
//
// Usage:
//
//	wakeupsim [-alg set-register|double-register|move-courier|cheater|
//	           counting-network|fetch&increment|fetch&and|fetch&or|
//	           fetch&complement|fetch&multiply|queue|stack|read-increment|
//	           test&set]
//	          [-n 16] [-seed 1] [-rounds] [-catch] [-json]
//
// The test&set reduction (the algorithm zoo's, wakeup.TASReduction) is
// accepted only at n ≤ 2: test&set is not perturbable, and a loser among
// three or more processes cannot conclude that everyone has stepped.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"jayanti98/internal/core"
	"jayanti98/internal/lowerbound"
	"jayanti98/internal/machine"
	"jayanti98/internal/report"
	"jayanti98/internal/wakeup"
)

type options struct {
	alg        string
	n          int
	seed       int64
	showRounds bool
	tryCatch   bool
	jsonOut    bool
}

// checkResult is one lemma check in wire form.
type checkResult struct {
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func toCheck(err error) checkResult {
	if err != nil {
		return checkResult{Detail: err.Error()}
	}
	return checkResult{OK: true}
}

// winnerResult is one winner's step count against the bound.
type winnerResult struct {
	Pid   int `json:"pid"`
	Steps int `json:"steps"`
}

// catchResult is the Theorem 6.1 catch in wire form.
type catchResult struct {
	Winner       int    `json:"winner"`
	WinnerSteps  int    `json:"winnerSteps"`
	UpSet        []int  `json:"upSet"`
	NeverStepped []int  `json:"neverStepped"`
	Summary      string `json:"summary"`
}

// runResult mirrors the text report as a single JSON object.
type runResult struct {
	Algorithm   string         `json:"algorithm"`
	N           int            `json:"n"`
	Seed        int64          `json:"seed"`
	Rounds      int            `json:"rounds"`
	MaxSteps    int            `json:"maxSteps"`
	MaxStepsPid int            `json:"maxStepsPid"`
	Bound       int            `json:"bound"`
	Winners     []winnerResult `json:"winners"`
	Checks      struct {
		Spec      checkResult `json:"spec"`
		Lemma51   checkResult `json:"lemma51"`
		Theorem61 checkResult `json:"theorem61"`
	} `json:"checks"`
	// Catch is present only when -catch found a violating (S,A)-run.
	Catch *catchResult `json:"catch,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("wakeupsim: ")
	opts := options{}
	flag.StringVar(&opts.alg, "alg", "set-register", "wakeup algorithm or Theorem 6.2 reduction name")
	flag.IntVar(&opts.n, "n", 16, "number of processes")
	flag.Int64Var(&opts.seed, "seed", 1, "toss-assignment seed (randomized algorithms)")
	flag.BoolVar(&opts.showRounds, "rounds", false, "print the per-round schedule (text mode only)")
	flag.BoolVar(&opts.tryCatch, "catch", false, "attempt the Theorem 6.1 catch via the (S,A)-run")
	flag.BoolVar(&opts.jsonOut, "json", false, "emit one JSON object on stdout instead of text")
	flag.Parse()

	caught, err := run(os.Stdout, opts)
	if err != nil {
		log.Fatal(err)
	}
	if caught {
		os.Exit(2)
	}
}

// run executes one simulation and renders it to w. The returned bool
// reports whether -catch exhibited a specification violation (exit 2).
func run(w io.Writer, opts options) (bool, error) {
	alg, err := buildAlgorithm(opts.alg, opts.n)
	if err != nil {
		return false, err
	}
	allRun, err := core.RunAll(alg, opts.n, lowerbound.HashTosses(opts.seed), core.Config{})
	if err != nil {
		return false, err
	}

	res := runResult{
		Algorithm: alg.Name(),
		N:         opts.n,
		Seed:      opts.seed,
		Rounds:    len(allRun.Rounds),
		Bound:     core.Log4Ceil(opts.n),
		Winners:   []winnerResult{},
	}
	res.MaxSteps, res.MaxStepsPid = allRun.MaxSteps()
	for _, wnr := range core.WakeupWinners(allRun.Returns) {
		res.Winners = append(res.Winners, winnerResult{Pid: wnr, Steps: allRun.Steps[wnr]})
	}
	res.Checks.Spec = toCheck(core.CheckWakeupRun(allRun))
	res.Checks.Lemma51 = toCheck(core.CheckLemma51(allRun))
	res.Checks.Theorem61 = toCheck(core.VerifyTheorem61(allRun))

	var catch *core.Catch
	if opts.tryCatch {
		if catch, err = core.CatchFastWakeup(allRun); err != nil {
			return false, err
		}
		if catch != nil {
			res.Catch = &catchResult{
				Winner:       catch.Winner,
				WinnerSteps:  catch.WinnerSteps,
				UpSet:        catch.S.Sorted(),
				NeverStepped: catch.NeverStepped,
				Summary:      catch.String(),
			}
		}
	}

	if opts.jsonOut {
		enc := json.NewEncoder(w)
		if err := enc.Encode(res); err != nil {
			return false, err
		}
		return res.Catch != nil, nil
	}

	fmt.Fprintf(w, "algorithm  %s\n", res.Algorithm)
	fmt.Fprintf(w, "processes  %d\n", res.N)
	fmt.Fprintf(w, "rounds     %d\n", res.Rounds)
	fmt.Fprintf(w, "t(R)       %d shared accesses (p%d)\n", res.MaxSteps, res.MaxStepsPid)
	winners := make([]int, len(res.Winners))
	for i, wnr := range res.Winners {
		winners[i] = wnr.Pid
	}
	fmt.Fprintf(w, "winners    %v\n", winners)
	for _, wnr := range res.Winners {
		fmt.Fprintf(w, "           p%d spent %d steps (bound ⌈log₄ %d⌉ = %d)\n",
			wnr.Pid, wnr.Steps, res.N, res.Bound)
	}
	fmt.Fprintf(w, "spec       %s\n", report.Check(core.CheckWakeupRun(allRun)))
	fmt.Fprintf(w, "lemma 5.1  %s\n", report.Check(core.CheckLemma51(allRun)))
	fmt.Fprintf(w, "thm 6.1    %s\n", report.Check(core.VerifyTheorem61(allRun)))

	if opts.showRounds {
		printRounds(w, allRun)
	}
	if opts.tryCatch {
		if catch == nil {
			fmt.Fprintln(w, "catch      no winner was fast enough to catch — the bound held")
			return false, nil
		}
		fmt.Fprintf(w, "catch      %s\n", catch)
		fmt.Fprintf(w, "           the (S,A)-run violates the wakeup specification: processes %v never step\n",
			catch.NeverStepped)
		return true, nil
	}
	return false, nil
}

func buildAlgorithm(name string, n int) (machine.Algorithm, error) {
	switch name {
	case "set-register":
		return wakeup.SetRegister(), nil
	case "double-register":
		return wakeup.DoubleRegister(), nil
	case "move-courier":
		return wakeup.MoveCourier(), nil
	case "cheater":
		return wakeup.Cheater(), nil
	case "counting-network":
		return wakeup.CountingNetwork(n), nil
	}
	for _, spec := range wakeup.Reductions() {
		if spec.Name == name {
			alg, _, err := lowerbound.BuildReduction(spec, "group-update", n)
			return alg, err
		}
	}
	if tas := wakeup.TASReduction(); name == tas.Name {
		if n > 2 {
			return nil, fmt.Errorf("the test&set reduction is sound only at n <= 2 (test&set is not perturbable), got n = %d", n)
		}
		alg, _, err := lowerbound.BuildReduction(tas, "group-update", n)
		return alg, err
	}
	return nil, fmt.Errorf("unknown algorithm %q", name)
}

func printRounds(w io.Writer, run *core.AllRun) {
	fmt.Fprintln(w, "\nper-round schedule:")
	for _, round := range run.Rounds {
		fmt.Fprintf(w, "round %d:", round.R)
		if len(round.Returned) > 0 {
			pids := make([]int, 0, len(round.Returned))
			for pid := range round.Returned {
				pids = append(pids, pid)
			}
			sort.Ints(pids)
			fmt.Fprintf(w, " returned=%v", pids)
		}
		labels := [4]string{"LL/val", "move", "swap", "SC"}
		for i, g := range round.Groups {
			if len(g) > 0 {
				fmt.Fprintf(w, " %s=%v", labels[i], g)
			}
		}
		fmt.Fprintln(w)
	}
}
