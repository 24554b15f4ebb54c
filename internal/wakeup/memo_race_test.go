package wakeup_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"jayanti98/internal/core"
	"jayanti98/internal/lowerbound"
	"jayanti98/internal/machine"
	"jayanti98/internal/wakeup"
)

// TestPidMemoSharedByParallelRuns runs the Lemma 5.2 check's sub-runs on
// four workers, which share the set-register instance's codec memo, and
// compares the outcome with the serial check; then four goroutines run
// the adversary on one instance at once and must each get the serial
// run's returns and step counts. n is large enough for set-register to
// use its memo. Run it under -race.
func TestPidMemoSharedByParallelRuns(t *testing.T) {
	const n = 32
	serial, err := lowerbound.VerifyIndistinguishability(wakeup.SetRegister(), n, machine.ZeroTosses)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		parallel, err := lowerbound.VerifyIndistinguishabilityCtx(context.Background(), wakeup.SetRegister(), n, machine.ZeroTosses, 4)
		if err != nil || parallel != serial {
			t.Fatalf("parallel check = (%d, %v), serial %d", parallel, err, serial)
		}
	}

	outcome := func(alg machine.Algorithm) string {
		run, err := core.RunAll(alg, n, machine.ZeroTosses, core.Config{NoHistory: true})
		if err != nil {
			return err.Error()
		}
		return fmt.Sprint(run.Returns, run.Steps)
	}
	want := outcome(wakeup.SetRegister())
	shared := wakeup.SetRegister()
	var wg sync.WaitGroup
	got := make([]string, 4)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = outcome(shared)
		}()
	}
	wg.Wait()
	for g, o := range got {
		if o != want {
			t.Fatalf("goroutine %d: %s, serial %s", g, o, want)
		}
	}
}
