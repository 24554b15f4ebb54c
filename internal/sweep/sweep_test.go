package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdersResultsByIndex(t *testing.T) {
	n := 64
	got, err := MapCtx(context.Background(), 8, n, func(i int) (int, error) {
		// Stagger completion so out-of-order finishes would be visible.
		time.Sleep(time.Duration((n-i)%5) * time.Millisecond)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("got %d results", len(got))
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("results[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapMatchesSerial(t *testing.T) {
	fn := func(i int) (string, error) { return fmt.Sprintf("item-%d", i), nil }
	serial, err := MapCtx(context.Background(), 1, 20, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16, 100} {
		par, err := MapCtx(context.Background(), workers, 20, fn)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(par, ",") != strings.Join(serial, ",") {
			t.Fatalf("workers=%d: %v != serial %v", workers, par, serial)
		}
	}
}

func TestMapReturnsFirstErrorByIndex(t *testing.T) {
	err3 := errors.New("boom at 3")
	err7 := errors.New("boom at 7")
	got, err := MapCtx(context.Background(), 8, 10, func(i int) (int, error) {
		switch i {
		case 3:
			// Let the higher-indexed failure land first; the reported
			// error must still be the lowest-indexed one.
			time.Sleep(20 * time.Millisecond)
			return 0, err3
		case 7:
			return 0, err7
		}
		return i, nil
	})
	if !errors.Is(err, err3) {
		t.Fatalf("err = %v, want the index-3 error", err)
	}
	if len(got) != 3 {
		t.Fatalf("partial results = %v, want items 0..2", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("results[%d] = %d", i, v)
		}
	}
}

func TestMapSerialErrorSemantics(t *testing.T) {
	failAt2 := errors.New("fail")
	var calls atomic.Int64
	got, err := MapCtx(context.Background(), 1, 10, func(i int) (int, error) {
		calls.Add(1)
		if i == 2 {
			return 0, failAt2
		}
		return i, nil
	})
	if !errors.Is(err, failAt2) || len(got) != 2 {
		t.Fatalf("got %v, %v", got, err)
	}
	if calls.Load() != 3 {
		t.Fatalf("serial path ran %d items, want 3", calls.Load())
	}
}

func TestMapPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic did not propagate")
		}
		if !strings.Contains(fmt.Sprint(r), "kaboom") {
			t.Fatalf("panic value lost: %v", r)
		}
	}()
	_, _ = MapCtx(context.Background(), 4, 8, func(i int) (int, error) {
		if i == 5 {
			panic("kaboom")
		}
		return i, nil
	})
}

func TestMapZeroItems(t *testing.T) {
	got, err := MapCtx(context.Background(), 4, 0, func(i int) (int, error) { return 0, errors.New("never") })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("explicit worker counts must pass through")
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-1); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-1) = %d", got)
	}
}

func TestSeedDeterministicAndDistinct(t *testing.T) {
	a := Seed("E2", "double-register", 16, 3)
	if b := Seed("E2", "double-register", 16, 3); a != b {
		t.Fatal("same coordinates must give the same seed")
	}
	if a < 0 {
		t.Fatalf("seed %d negative", a)
	}
	seen := map[int64]string{a: "base"}
	for _, c := range []struct {
		exp, alg  string
		n, sample int
	}{
		{"E1", "double-register", 16, 3},
		{"E2", "set-register", 16, 3},
		{"E2", "double-register", 32, 3},
		{"E2", "double-register", 16, 4},
	} {
		s := Seed(c.exp, c.alg, c.n, c.sample)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between %+v and %s", c, prev)
		}
		seen[s] = fmt.Sprintf("%+v", c)
	}
}

func TestDeriveStreamDistinct(t *testing.T) {
	base := Seed("E2", "double-register", 8, 0)
	seen := make(map[int64]int)
	for i := 0; i < 1000; i++ {
		s := Derive(base, i)
		if s < 0 {
			t.Fatalf("Derive(%d) = %d negative", i, s)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("Derive collision between samples %d and %d", prev, i)
		}
		seen[s] = i
	}
	if Derive(base, 0) != Derive(base, 0) {
		t.Fatal("Derive must be deterministic")
	}
}

// TestMapRaceClean hammers the engine with shared-nothing items under the
// race detector: each item owns RNG state derived from its index.
func TestMapRaceClean(t *testing.T) {
	sums, err := MapCtx(context.Background(), 8, 128, func(i int) (uint64, error) {
		var sum uint64
		s := uint64(Derive(1, i))
		for j := 0; j < 1000; j++ {
			s = mix64(s + uint64(j))
			sum += s
		}
		return sum, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	again, err := MapCtx(context.Background(), 3, 128, func(i int) (uint64, error) {
		var sum uint64
		s := uint64(Derive(1, i))
		for j := 0; j < 1000; j++ {
			s = mix64(s + uint64(j))
			sum += s
		}
		return sum, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sums {
		if sums[i] != again[i] {
			t.Fatalf("item %d differed across parallelism levels", i)
		}
	}
}

// TestMapCtxPreCancelled: a context that is already done dispatches nothing.
func TestMapCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		got, err := MapCtx(ctx, workers, 16, func(i int) (int, error) {
			calls.Add(1)
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if len(got) != 0 || calls.Load() != 0 {
			t.Fatalf("workers=%d: pre-cancelled sweep ran %d items, returned %v", workers, calls.Load(), got)
		}
	}
}

// TestMapCtxMidRunCancellation: cancelling mid-sweep stops dispatch, returns
// ctx.Err(), and hands back a completed prefix of results.
func TestMapCtxMidRunCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		got, err := MapCtx(ctx, workers, 1000, func(i int) (int, error) {
			if calls.Add(1) == 10 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return i + 1, nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if calls.Load() >= 1000 {
			t.Fatalf("workers=%d: cancellation did not stop dispatch (%d calls)", workers, calls.Load())
		}
		// The returned slice must be a completed prefix: values i+1 in order.
		for i, v := range got {
			if v != i+1 {
				t.Fatalf("workers=%d: results[%d] = %d, want %d (not a completed prefix)", workers, i, v, i+1)
			}
		}
	}
}

// TestMapCtxItemErrorBeatsCancellation: an item error at a lower index takes
// precedence over a later-observed cancellation, as in the serial loop.
func TestMapCtxItemErrorBeatsCancellation(t *testing.T) {
	boom := errors.New("boom at 0")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := MapCtx(ctx, 4, 8, func(i int) (int, error) {
		if i == 0 {
			time.Sleep(10 * time.Millisecond)
			cancel() // cancellation lands while higher items are in flight
			return 0, boom
		}
		time.Sleep(20 * time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the index-0 item error", err)
	}
	if len(got) != 0 {
		t.Fatalf("partial results = %v, want none before index 0", got)
	}
}

// TestMapCtxDeadline: a deadline context cancels the sweep with
// DeadlineExceeded.
func TestMapCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := MapCtx(ctx, 2, 10000, func(i int) (int, error) {
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
