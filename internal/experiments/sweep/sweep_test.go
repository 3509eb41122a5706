package sweep

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nemesis/internal/sim"
)

func TestMapOrdersResults(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	got, err := MapWorkers(8, items, func(i int) (string, error) {
		return fmt.Sprintf("cell-%d", i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		if want := fmt.Sprintf("cell-%d", i); g != want {
			t.Fatalf("result %d = %q, want %q", i, g, want)
		}
	}
}

func TestSerialEqualsParallel(t *testing.T) {
	items := make([]int, 37)
	for i := range items {
		items[i] = i * 3
	}
	fn := func(i int) (int, error) { return i*i + 1, nil }
	serial, err := MapWorkers(1, items, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 16} {
		par, err := MapWorkers(w, items, fn)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if serial[i] != par[i] {
				t.Fatalf("workers=%d: result %d = %d, want %d", w, i, par[i], serial[i])
			}
		}
	}
}

func TestMapErrorIsLowestIndex(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	// Items 3 and 6 fail; the reported error must always be item 3's,
	// regardless of which goroutine finishes first.
	for trial := 0; trial < 20; trial++ {
		_, err := MapWorkers(4, items, func(i int) (int, error) {
			switch i {
			case 3:
				return 0, errA
			case 6:
				return 0, errB
			}
			return i, nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("trial %d: err = %v, want %v", trial, err, errA)
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	got, err := MapWorkers(4, nil, func(i int) (int, error) { return i, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty: got %v, %v", got, err)
	}
	got, err = MapWorkers(4, []int{9}, func(i int) (int, error) { return i + 1, nil })
	if err != nil || len(got) != 1 || got[0] != 10 {
		t.Fatalf("single: got %v, %v", got, err)
	}
}

func TestMapWorkersExceedItems(t *testing.T) {
	// More workers than items must not panic, leak goroutines waiting for
	// cells that never come, or disturb result order.
	items := []int{10, 20, 30}
	got, err := MapWorkers(64, items, func(i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	want := []int{11, 21, 31}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestMapWorkersEmptyAtAnyWidth(t *testing.T) {
	for _, w := range []int{0, 1, 4, 100} {
		got, err := MapWorkers(w, []int(nil), func(i int) (int, error) {
			t.Fatal("fn called on empty sweep")
			return 0, nil
		})
		if err != nil || len(got) != 0 {
			t.Fatalf("workers=%d: got %v, %v", w, got, err)
		}
	}
}

func TestMapManyConcurrentFailures(t *testing.T) {
	// Every odd item fails with its own error; the reported error must be
	// the lowest failing index (1) on every trial at every width.
	items := make([]int, 32)
	for i := range items {
		items[i] = i
	}
	errAt := make([]error, len(items))
	for i := 1; i < len(items); i += 2 {
		errAt[i] = fmt.Errorf("cell %d failed", i)
	}
	for _, w := range []int{2, 4, 16, 32} {
		for trial := 0; trial < 10; trial++ {
			_, err := MapWorkers(w, items, func(i int) (int, error) {
				return i, errAt[i]
			})
			if !errors.Is(err, errAt[1]) {
				t.Fatalf("workers=%d trial %d: err = %v, want %v", w, trial, err, errAt[1])
			}
		}
	}
}

func TestMapWorkersContextCancelMidSweep(t *testing.T) {
	// Cancel after a prefix of cells completes: the sweep must return
	// ctx.Err(), and no cell may start after the cancellation is observed.
	ctx, cancel := context.WithCancel(context.Background())
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	var started atomic.Int64
	_, err := MapWorkersContext(ctx, 4, items, func(_ context.Context, i int) (int, error) {
		if started.Add(1) == 1 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Each worker observes ctx between items, so after the cancel at most
	// one already-claimed cell per worker still runs: nowhere near all 100.
	if n := started.Load(); n > 8 {
		t.Fatalf("%d cells started despite cancellation", n)
	}
}

func TestMapWorkersContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 4} {
		_, err := MapWorkersContext(ctx, w, []int{1, 2, 3}, func(_ context.Context, i int) (int, error) {
			t.Fatal("fn ran under a pre-cancelled context")
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
	}
}

func TestMapWorkersContextErrorStillLowestIndex(t *testing.T) {
	// The context-aware path preserves the lowest-index-error contract of
	// MapWorkers when the context stays live.
	errA, errB := errors.New("a"), errors.New("b")
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for trial := 0; trial < 20; trial++ {
		_, err := MapWorkersContext(context.Background(), 4, items, func(_ context.Context, i int) (int, error) {
			switch i {
			case 2:
				return 0, errA
			case 5:
				return 0, errB
			}
			return i, nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("trial %d: err = %v, want %v", trial, err, errA)
		}
	}
}

func TestProgressReportsEveryCell(t *testing.T) {
	items := make([]int, 25)
	for i := range items {
		items[i] = i
	}
	for _, w := range []int{1, 4} {
		var mu sync.Mutex
		var dones []int
		ctx := WithProgress(context.Background(), func(done, total int) {
			if total != len(items) {
				t.Errorf("total = %d, want %d", total, len(items))
			}
			mu.Lock()
			dones = append(dones, done)
			mu.Unlock()
		})
		if _, err := MapWorkersContext(ctx, w, items, func(_ context.Context, i int) (int, error) {
			return i, nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(dones) != len(items) {
			t.Fatalf("workers=%d: %d progress events, want %d", w, len(dones), len(items))
		}
		sort.Ints(dones)
		for i, d := range dones {
			if d != i+1 {
				t.Fatalf("workers=%d: cumulative done values %v, want 1..%d each once", w, dones, len(items))
			}
		}
	}
}

func TestProgressStrippedFromNestedSweeps(t *testing.T) {
	// A cell that itself sweeps must not report into the outer callback:
	// done/total always describe the top-level sweep.
	outer := []int{0, 1, 2}
	var events atomic.Int64
	ctx := WithProgress(context.Background(), func(done, total int) {
		events.Add(1)
		if total != len(outer) {
			t.Errorf("total = %d, want %d (outer cells only)", total, len(outer))
		}
	})
	_, err := MapWorkersContext(ctx, 2, outer, func(ctx context.Context, i int) (int, error) {
		// Nested sweep of 10 cells through the ctx the runner handed us.
		_, err := MapWorkersContext(ctx, 2, make([]int, 10), func(_ context.Context, j int) (int, error) {
			return j, nil
		})
		return i, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := events.Load(); n != int64(len(outer)) {
		t.Fatalf("progress events = %d, want %d (nested sweeps must stay silent)", n, len(outer))
	}
}

// A cell whose simulated process panics fails with the *sim.ProcPanic as its
// error, and the lowest-index rule still picks among such cells.
func TestMapProcPanicIsCellError(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	cell := func(i int) (int, error) {
		if i == 2 || i == 5 {
			s := sim.New(1)
			s.Spawn(fmt.Sprintf("cell-%d", i), func(p *sim.Proc) {
				p.Sleep(time.Millisecond)
				panic("cell failed")
			})
			defer s.Shutdown()
			s.RunFor(time.Second)
		}
		return i, nil
	}
	for _, workers := range []int{1, 8} {
		_, err := MapWorkers(workers, items, cell)
		var pp *sim.ProcPanic
		if !errors.Is(err, sim.ErrProcPanic) || !errors.As(err, &pp) || pp.Proc != "cell-2" {
			t.Errorf("workers=%d: err = %v, want cell-2's process panic", workers, err)
		}
	}
}

// Any other panic is not a cell error: it propagates.
func TestMapOtherPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "not a process" {
			t.Errorf("recovered %v, want the cell's own panic", r)
		}
	}()
	MapWorkers(1, []int{0, 1}, func(i int) (int, error) {
		if i == 1 {
			panic("not a process")
		}
		return i, nil
	})
	t.Error("MapWorkers returned after a cell panicked")
}
