package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"nemesis/internal/domain"
	"nemesis/internal/mem"
	"nemesis/internal/vm"
)

// fuzzSys is one randomized world: two paged domains under memory pressure
// and a frame-burst domain that triggers revocations, with telemetry off as
// in every world Fork carries.
type fuzzSys struct {
	sys    *System
	a, b   *domain.Domain
	c      *domain.Domain
	stA    *vm.Stretch
	stB    *vm.Stretch
	failed bool
}

func newFuzzSys(t *testing.T, seed int64) *fuzzSys {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MemoryFrames = 96
	cfg.Seed = seed
	sys := New(cfg)
	f := &fuzzSys{sys: sys}
	var err error
	if f.a, err = sys.NewDomain("a", cpuShare(), mem.Contract{Guaranteed: 2, Optimistic: 40}); err != nil {
		t.Fatal(err)
	}
	if f.b, err = sys.NewDomain("b", cpuShare(), mem.Contract{Guaranteed: 2, Optimistic: 40}); err != nil {
		t.Fatal(err)
	}
	if f.c, err = sys.NewDomain("c", cpuShare(), mem.Contract{Guaranteed: 40}); err != nil {
		t.Fatal(err)
	}
	half := diskShare()
	half.S = 100 * time.Millisecond
	if f.stA, _, err = sys.NewPagedStretch(f.a, 32*vm.PageSize, 64*vm.PageSize, half); err != nil {
		t.Fatal(err)
	}
	if f.stB, _, err = sys.NewPagedStretch(f.b, 32*vm.PageSize, 64*vm.PageSize, half); err != nil {
		t.Fatal(err)
	}
	return f
}

// step spawns one bounded random workload and runs the world until it exits,
// leaving the system quiesced (forkable) again.
func (f *fuzzSys) step(t *testing.T, r *rand.Rand) {
	switch r.Intn(3) {
	case 0, 1: // paging traffic on a random pager domain
		dom, st := f.a, f.stA
		if r.Intn(2) == 1 {
			dom, st = f.b, f.stB
		}
		start, count := r.Intn(24), 1+r.Intn(8)
		acc := vm.AccessRead
		if r.Intn(2) == 0 {
			acc = vm.AccessWrite
		}
		dom.Go("work", func(th *domain.Thread) {
			if err := th.Touch(st.PageBase(start), count*vm.PageSize, acc); err != nil {
				t.Errorf("touch: %v", err)
				f.failed = true
			}
		})
	case 2: // frame burst: claims guaranteed frames, forcing revocations
		n := 5 + r.Intn(20)
		f.c.Go("burst", func(th *domain.Thread) {
			cl := f.c.MemClient()
			var got []mem.PFN
			for i := 0; i < n; i++ {
				pfn, err := cl.AllocFrame(th.Proc())
				if err != nil {
					t.Errorf("burst alloc: %v", err)
					f.failed = true
					return
				}
				got = append(got, pfn)
			}
			for _, pfn := range got {
				if err := cl.FreeFrame(pfn); err != nil {
					t.Errorf("burst free: %v", err)
					f.failed = true
					return
				}
			}
		})
	}
	f.sys.Run(30 * time.Second)
}

// observe folds every comparable observable into one struct.
type fuzzObs struct {
	now       int64
	transA    [32]mem.PFN
	transB    [32]mem.PFN
	freeOrder []mem.PFN
	statsA    domain.Stats
	statsB    domain.Stats
	usdEvents int
	allocated [3]uint64
}

func (f *fuzzSys) observe() fuzzObs {
	o := fuzzObs{
		now:       int64(f.sys.Sim.Now()),
		freeOrder: f.sys.Frames.FreeOrder(),
		statsA:    f.a.Stats(),
		statsB:    f.b.Stats(),
		usdEvents: len(f.sys.USDLog.Events()),
		allocated: [3]uint64{f.a.MemClient().Allocated(), f.b.MemClient().Allocated(), f.c.MemClient().Allocated()},
	}
	for pg := 0; pg < 32; pg++ {
		if pfn, _, err := f.sys.TS.Trans(f.stA.PageBase(pg)); err == nil {
			o.transA[pg] = pfn
		} else {
			o.transA[pg] = ^mem.PFN(0)
		}
		if pfn, _, err := f.sys.TS.Trans(f.stB.PageBase(pg)); err == nil {
			o.transB[pg] = pfn
		} else {
			o.transB[pg] = ^mem.PFN(0)
		}
	}
	return o
}

// remap re-points the fuzz handles at their twins in a fork, found by ID.
func (f *fuzzSys) remap(t *testing.T, snap *Snapshot) *fuzzSys {
	t.Helper()
	nf := &fuzzSys{
		sys: snap.Sys,
		a:   snap.Sys.Domain(f.a.ID()), b: snap.Sys.Domain(f.b.ID()), c: snap.Sys.Domain(f.c.ID()),
		stA: snap.Sys.SA.Lookup(f.stA.ID()), stB: snap.Sys.SA.Lookup(f.stB.ID()),
	}
	if nf.a == nil || nf.b == nil || nf.c == nil || nf.stA == nil || nf.stB == nil {
		t.Fatal("fork lacks a twin domain or stretch")
	}
	return nf
}

// TestForkFuzzSystem: random warmups, fork, identical random continuations —
// page tables, frame free-list order, domain stats (revocations included),
// USD trace and allocation state must all match a never-forked control
// world, on both the fork and the parent.
func TestForkFuzzSystem(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		warmSteps := 3 + int(seed)%3
		measureSteps := 4

		runWarm := func() *fuzzSys {
			f := newFuzzSys(t, seed)
			r := rand.New(rand.NewSource(seed * 31))
			for i := 0; i < warmSteps; i++ {
				f.step(t, r)
			}
			return f
		}
		measure := func(f *fuzzSys) {
			r := rand.New(rand.NewSource(seed * 131))
			for i := 0; i < measureSteps; i++ {
				f.step(t, r)
			}
		}

		ctl := runWarm()
		measure(ctl)
		want := ctl.observe()

		f := runWarm()
		snap, err := f.sys.Fork()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		child := f.remap(t, snap)
		measure(child)
		if got := child.observe(); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: forked world diverged:\n got %+v\nwant %+v", seed, got, want)
		}

		measure(f)
		if got := f.observe(); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: parent perturbed by fork:\n got %+v\nwant %+v", seed, got, want)
		}
		if ctl.failed || f.failed || child.failed {
			t.Fatalf("seed %d: workload errors", seed)
		}

		ctl.sys.Shutdown()
		f.sys.Shutdown()
		child.sys.Shutdown()
	}
}
