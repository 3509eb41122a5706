// Package sweep fans independent experiment cells across worker goroutines
// with deterministic, index-ordered results.
//
// Every cell of a parameter sweep (a netswap (latency, loss) point, one
// replacement policy, one cluster size, one whole figure) builds its own
// Simulator and machine, so cells share no mutable state and can run
// concurrently. Determinism is preserved per cell — each simulation is
// single-threaded and seeded — and the runner returns results in item
// order regardless of completion order, so serial and parallel runs of the
// same sweep produce identical output.
//
// Map is the one entry point: workers observe ctx between items (a
// cancelled sweep stops claiming cells and returns ctx.Err()), and a
// Progress callback installed with WithProgress receives per-cell
// completion events — which is how long-running services stream sweep
// progress without touching the cell functions themselves.
package sweep

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"nemesis/internal/sim"
)

// EnvWorkers is the environment variable overriding the fan-out width.
const EnvWorkers = "NEMESIS_SWEEP_WORKERS"

// Workers returns the default fan-out width: NEMESIS_SWEEP_WORKERS if set
// to a positive integer, else GOMAXPROCS.
func Workers() int {
	if v := os.Getenv(EnvWorkers); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Progress receives per-cell completion events: done cells finished out of
// total. Callbacks arrive from worker goroutines, possibly concurrently,
// and done is cumulative (monotonic per callback value, though delivery
// order between goroutines is unordered) — consumers should treat each
// event as "at least done/total complete".
type Progress func(done, total int)

type progressKey struct{}

// WithProgress returns a context whose outermost context-aware sweep
// reports per-cell completion into fn. Nested sweeps run with the callback
// stripped, so done/total always describe the top-level sweep's cells.
func WithProgress(ctx context.Context, fn Progress) context.Context {
	return context.WithValue(ctx, progressKey{}, fn)
}

func progressFrom(ctx context.Context) Progress {
	fn, _ := ctx.Value(progressKey{}).(Progress)
	return fn
}

// Map runs fn over items on up to workers goroutines (Workers() when
// workers <= 0) and returns the results in item order. If any invocation
// fails, the error of the lowest-index failing item is returned (a
// deterministic choice regardless of goroutine scheduling) and the results
// are nil. One worker or a single-item sweep degrades to a plain serial
// loop on the caller's goroutine. Further:
//
//   - Cancellation: workers observe ctx between items. Once ctx is done no
//     further cells start, in-flight cells finish, and the call returns
//     ctx.Err() (cancellation wins over any cell error, since which cells
//     ran to completion under a cancelled sweep is scheduling-dependent).
//   - Progress: a callback installed with WithProgress is invoked after
//     each successful cell. The ctx passed to fn has the callback stripped,
//     so a cell that itself sweeps (a suite cell running a nested netswap
//     sweep) cannot double-report.
//   - Process panics: a cell whose simulated process panicked (a
//     *sim.ProcPanic, and only that) fails with it as its error, so one bad
//     cell neither kills the caller nor hides a lower-index failure.
func Map[I, O any](ctx context.Context, workers int, items []I, fn func(context.Context, I) (O, error)) ([]O, error) {
	prog := progressFrom(ctx)
	inner := ctx
	if prog != nil {
		inner = WithProgress(ctx, nil)
	}
	total := len(items)
	var done atomic.Int64
	report := func() {
		if prog != nil {
			prog(int(done.Add(1)), total)
		}
	}

	if workers <= 0 {
		workers = Workers()
	}
	workers = min(workers, len(items))
	if workers <= 1 {
		out := make([]O, len(items))
		for i, it := range items {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			o, err := call(inner, it, fn)
			if err != nil {
				return nil, err
			}
			out[i] = o
			report()
		}
		return out, nil
	}

	out := make([]O, len(items))
	errs := make([]error, len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				out[i], errs[i] = call(inner, items[i], fn)
				if errs[i] == nil {
					report()
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// call runs one cell, turning a *sim.ProcPanic into its error. Any other
// panic propagates.
func call[I, O any](ctx context.Context, it I, fn func(context.Context, I) (O, error)) (o O, err error) {
	defer func() {
		if r := recover(); r != nil {
			pp, ok := r.(*sim.ProcPanic)
			if !ok {
				panic(r)
			}
			err = pp
		}
	}()
	return fn(ctx, it)
}
