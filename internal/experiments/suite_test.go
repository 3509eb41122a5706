package experiments

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"nemesis/internal/experiments/sweep"
)

// countdownCtx reports itself cancelled from its (left+1)-th Err call on,
// so a cancellation lands at a fixed point between the cells of a sweep.
// It counts every call.
type countdownCtx struct {
	context.Context
	left, calls atomic.Int32
}

func (c *countdownCtx) Err() error {
	c.calls.Add(1)
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSuiteNestedSweepsObeyCaller pins that the cells which sweep (E2, E7,
// E8a) run their own sweeps under the suite's context and workers bound.
// Serial at -workers 1 even where the default is wider, each sweep checks
// the context once per cell on the calling goroutine: the suite before the
// cell, the nested sweep before its first item, and again before its
// second, which is cancelled, so the cell fails with the suite's
// cancellation after three checks.
func TestSuiteNestedSweepsObeyCaller(t *testing.T) {
	t.Setenv(sweep.EnvWorkers, "8")
	for _, cell := range []string{"E2", "E7", "E8a"} {
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(2)
		_, err := RunSuite(ctx, time.Second, 1, []string{cell})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: RunSuite = %v, want the suite's cancellation", cell, err)
		}
		if n := ctx.calls.Load(); n != 3 {
			t.Errorf("%s: the context was checked %d times, want 3 (serial sweeps)", cell, n)
		}
	}
}

// TestSuiteSerialEqualsParallel pins the sweep runner's determinism end to
// end: the full suite, run serially and with a fan-out, must produce
// byte-identical cell output (every cell is its own seeded Simulator, so
// goroutine interleaving between cells cannot leak into results).
func TestSuiteSerialEqualsParallel(t *testing.T) {
	const measure = time.Second
	serial, err := RunSuite(context.Background(), measure, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSuite(context.Background(), measure, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("cell count: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Name != parallel[i].Name {
			t.Errorf("cell %d name: serial %q, parallel %q", i, serial[i].Name, parallel[i].Name)
		}
		if serial[i].Output != parallel[i].Output {
			t.Errorf("cell %q output differs:\nserial:\n%s\nparallel:\n%s",
				serial[i].Name, serial[i].Output, parallel[i].Output)
		}
	}
}

// TestSuiteCellsSelectByPrefix pins the -cells selection: prefixes pick
// cells in suite order, a cell two prefixes match runs once, no prefixes
// pick all 19 cells, and a prefix matching no cell (or an empty one) is an
// error.
func TestSuiteCellsSelectByPrefix(t *testing.T) {
	all, err := SuiteCellNames(nil)
	if err != nil || len(all) != 19 {
		t.Fatalf("all cells: %d names, %v; want 19", len(all), err)
	}
	got, err := SuiteCellNames([]string{"E8", "A", "E8a"})
	want := []string{"A1 laxity", "A2 fcfs-disk", "A3 crosstalk", "A4 slack", "A5 revocation",
		"E8a netswap-sweep", "E8b netswap-outage", "E8c netswap-degrade"}
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("E8,A,E8a selected %q, %v; want %q", got, err, want)
	}
	for _, bad := range [][]string{{"A", "X"}, {"A", ""}} {
		if _, err := SuiteCellNames(bad); err == nil {
			t.Errorf("prefixes %q accepted", bad)
		}
	}
	cells, err := RunSuite(context.Background(), time.Second, 1, []string{"E3"})
	if err != nil || len(cells) != 1 || cells[0].Name != "E3 guarded-pt" {
		t.Fatalf("RunSuite E3: %v, %v", cells, err)
	}
}
