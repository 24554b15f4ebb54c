// Package sweep is the deterministic worker-pool engine behind the
// experiment sweeps: it fans a grid of independent work items out over a
// bounded number of goroutines while guaranteeing that the results — and
// the first error — are exactly those of the serial loop it replaces.
//
// Determinism contract:
//
//   - Results are collected into an index-ordered slice and handed back
//     only after every worker has finished (a barrier), so downstream
//     rendering depends only on the items, never on goroutine scheduling.
//   - Work items must share no mutable state; in particular no *rand.Rand
//     (see sched.Random) may be shared between items. Randomized items
//     derive a private seed from their grid coordinates with Seed, or from
//     a base seed and sample index with Derive, so the same item always
//     sees the same randomness at every parallelism level.
//   - Errors reproduce serial semantics: MapCtx returns the error of the
//     lowest-indexed failing item together with the results of every item
//     before it, exactly as the serial loop would have.
//   - Cancellation is the one sanctioned breach of determinism: an
//     uncancelled MapCtx is byte-identical at every worker count, but once
//     ctx is done the set of items that managed to complete depends on
//     timing. Callers must therefore never cache or render the partial
//     results of a cancelled sweep as if they were a full run — the jobs
//     layer treats ctx.Err() as "no result" for exactly this reason.
package sweep

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"jayanti98/internal/obs"
)

// Engine metrics, on the process Default registry: how many work items
// the pool has run, how long each took, and how many workers are busy
// right now (utilization = busy / configured workers). Observation is two
// atomic adds plus one time.Now pair per item — noise next to an
// adversary run, and entirely outside the determinism contract (metrics
// never feed back into results).
var (
	metricsOnce sync.Once
	tasksTotal  *obs.Counter
	taskSeconds *obs.Histogram
	workersBusy *obs.Gauge
)

func engineMetrics() (*obs.Counter, *obs.Histogram, *obs.Gauge) {
	metricsOnce.Do(func() {
		r := obs.Default()
		tasksTotal = r.Counter("sweep_tasks_total", "Work items completed by the sweep worker pool.", nil)
		taskSeconds = r.Histogram("sweep_task_duration_seconds", "Per-item wall clock in the sweep worker pool.", nil, nil)
		workersBusy = r.Gauge("sweep_workers_busy", "Sweep workers currently running an item.", nil)
	})
	return tasksTotal, taskSeconds, workersBusy
}

// Workers resolves a worker-count request: values ≥ 1 are returned as is,
// anything else (0, negative) means "one worker per available CPU",
// i.e. runtime.GOMAXPROCS(0).
func Workers(requested int) int {
	if requested >= 1 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// MapCtx runs fn(i) for every i in [0, n) on up to `workers` goroutines
// (Workers-resolved; clamped to n) and returns the results in index order.
//
// If any item fails, MapCtx returns the error of the lowest-indexed
// failing item and the results of all items before it — the same (partial
// results, first error) a serial loop produces. Items after a known-failed
// index may be skipped. A panicking item re-panics on the caller's
// goroutine with the worker's stack attached, so a crash looks the same as
// in the serial loop.
//
// Once ctx is done, no further items are dispatched, and MapCtx returns
// ctx.Err() together with the results of the items that completed before
// the cancellation point: the cancellation behaves like an error at the
// first undispatched index. An item error at a lower index still takes
// precedence, exactly as in the serial loop. Items already running when
// ctx is cancelled are not interrupted — fn must watch ctx itself if
// mid-item cancellation matters. Determinism caveat: which items complete
// before a cancellation depends on timing, so only the error value
// (ctx.Err()) is deterministic for a cancelled sweep; an uncancelled
// MapCtx is byte-identical at every worker count.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	tasks, latency, busy := engineMetrics()
	// runItem is fn(i) bracketed by the engine metrics; the deferred
	// close-out keeps the busy gauge balanced even when fn panics.
	runItem := func(i int) (T, error) {
		busy.Inc()
		start := time.Now()
		defer func() {
			latency.Observe(time.Since(start).Seconds())
			busy.Dec()
			tasks.Inc()
		}()
		return fn(i)
	}
	if workers <= 1 {
		// The serial path: exactly the loop the engine replaces, with a
		// cancellation check before each dispatch.
		out := make([]T, 0, n)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			r, err := runItem(i)
			if err != nil {
				return out, err
			}
			out = append(out, r)
		}
		return out, nil
	}

	results := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var firstErr atomic.Int64 // lowest index that returned an error; n = none
	firstErr.Store(int64(n))
	var (
		wg         sync.WaitGroup
		panicOnce  sync.Once
		panicVal   any
		panicStack []byte
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() {
						panicVal = r
						panicStack = debug.Stack()
					})
				}
			}()
			for {
				i := int(next.Add(1) - 1)
				// Indices are claimed in order, so by the time item i is
				// claimed every item below i is claimed too; skipping
				// indices past a failed one can never starve an item that
				// the serial loop would have run.
				if i >= n || int64(i) > firstErr.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					// Record the cancellation as this index's error so the
					// usual lowest-index-wins rule yields the completed
					// prefix below the first undispatched item.
					errs[i] = err
					for {
						cur := firstErr.Load()
						if int64(i) >= cur || firstErr.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
					return
				}
				r, err := runItem(i)
				if err != nil {
					errs[i] = err
					for {
						cur := firstErr.Load()
						if int64(i) >= cur || firstErr.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(fmt.Sprintf("sweep: worker panicked: %v\n%s", panicVal, panicStack))
	}
	if fe := int(firstErr.Load()); fe < n {
		return results[:fe], errs[fe]
	}
	return results, nil
}

// Seed derives the RNG seed of one work item from its grid coordinates
// (experiment, algorithm, n, sample). The same coordinates always yield
// the same seed — at any parallelism level and in any execution order —
// and distinct coordinates yield independent-looking seeds. Seeds are
// non-negative.
func Seed(experiment, algorithm string, n, sample int) int64 {
	h := fnv.New64a()
	io.WriteString(h, experiment)
	h.Write([]byte{0})
	io.WriteString(h, algorithm)
	h.Write([]byte{0})
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(n))
	binary.LittleEndian.PutUint64(buf[8:], uint64(sample))
	h.Write(buf[:])
	return int64(mix64(h.Sum64()) >> 1)
}

// Derive expands a base seed into the i-th seed of its stream (a
// splitmix64 step), for sweeps that draw many samples from one seed.
// Seeds are non-negative.
func Derive(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9e3779b97f4a7c15
	return int64(mix64(z) >> 1)
}

// mix64 is the splitmix64 finalizer — a cheap bijective avalanche.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
