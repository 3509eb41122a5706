package stretchdrv_test

// Driver behaviour tests, in an external test package so the rig can use
// the core facade (core imports stretchdrv; external test packages may
// close that loop).

import (
	"testing"
	"time"

	"nemesis/internal/atropos"
	"nemesis/internal/core"
	"nemesis/internal/domain"
	"nemesis/internal/mem"
	"nemesis/internal/stretchdrv"
	"nemesis/internal/vm"
)

func cpuQ() atropos.QoS {
	return atropos.QoS{P: 100 * time.Millisecond, S: 30 * time.Millisecond, X: true}
}

func diskQ() atropos.QoS {
	return atropos.QoS{P: 250 * time.Millisecond, S: 150 * time.Millisecond, X: true, L: 10 * time.Millisecond}
}

func rig(frames int) *core.System {
	cfg := core.DefaultConfig()
	cfg.MemoryFrames = frames
	return core.New(cfg)
}

func TestPagedDriverStatesAndCounters(t *testing.T) {
	sys := rig(256)
	d, _ := sys.NewDomain("app", cpuQ(), mem.Contract{Guaranteed: 2})
	st, drv, err := sys.NewPagedStretch(d, 8*vm.PageSize, 32*vm.PageSize, diskQ())
	if err != nil {
		t.Fatal(err)
	}
	if drv.DriverName() != "paged" {
		t.Fatalf("name = %q", drv.DriverName())
	}
	if drv.SwapFreeBloks() != 32 {
		t.Fatalf("free bloks = %d", drv.SwapFreeBloks())
	}
	d.Go("main", func(th *domain.Thread) {
		core.PreallocateFrames(th, 2)
		// Two passes: first writes (dirty), second reads (page-ins).
		th.Touch(st.Base(), 8*vm.PageSize, vm.AccessWrite)
		th.Touch(st.Base(), 8*vm.PageSize, vm.AccessRead)
	})
	sys.Run(30 * time.Second)
	s := drv.Stats
	if s.ZeroFills != 8 {
		t.Fatalf("zero fills = %d, want 8 (one per fresh page)", s.ZeroFills)
	}
	if s.PageOuts < 6 || s.PageIns < 6 {
		t.Fatalf("outs=%d ins=%d", s.PageOuts, s.PageIns)
	}
	if s.Evictions < s.PageOuts {
		t.Fatalf("evictions=%d < pageouts=%d", s.Evictions, s.PageOuts)
	}
	if drv.ResidentPages() != 2 {
		t.Fatalf("resident = %d with 2 frames", drv.ResidentPages())
	}
	// Swap bloks were allocated lazily, only for evicted pages.
	if free := drv.SwapFreeBloks(); free != 32-8 {
		t.Fatalf("free bloks = %d, want 24", free)
	}
	sys.Shutdown()
	sys.RunUntilIdle(1 << 22)
}

func TestPagedFaultOutsideStretchFails(t *testing.T) {
	sys := rig(64)
	d, _ := sys.NewDomain("app", cpuQ(), mem.Contract{Guaranteed: 2})
	st, drv, _ := sys.NewPagedStretch(d, 2*vm.PageSize, 8*vm.PageSize, diskQ())
	other, _ := d.NewStretch(vm.PageSize)
	done := false
	// Direct driver invocation with a foreign fault.
	d.Go("probe", func(th *domain.Thread) {
		res := drv.SatisfyFault(th.Proc(), &vm.Fault{VA: other.Base(), Class: vm.PageFault, SID: other.ID()}, true)
		if res != domain.Failure {
			t.Errorf("foreign fault result = %v", res)
		}
		res = drv.SatisfyFault(th.Proc(), &vm.Fault{VA: st.Base(), Class: vm.ProtectionFault, SID: st.ID()}, true)
		if res != domain.Failure {
			t.Errorf("protection fault result = %v", res)
		}
		done = true
	})
	sys.Run(time.Second)
	if !done {
		t.Fatal("probe incomplete")
	}
	sys.Shutdown()
	sys.RunUntilIdle(1 << 20)
}

func TestPagedRelinquishCleansAndFrees(t *testing.T) {
	sys := rig(64)
	d, _ := sys.NewDomain("app", cpuQ(), mem.Contract{Guaranteed: 8})
	st, drv, _ := sys.NewPagedStretch(d, 8*vm.PageSize, 32*vm.PageSize, diskQ())
	freed := -1
	d.Go("main", func(th *domain.Thread) {
		core.PreallocateFrames(th, 8)
		th.Touch(st.Base(), 6*vm.PageSize, vm.AccessWrite) // 6 dirty, 2 unused
		freed = drv.Relinquish(th.Proc(), 4)
	})
	sys.Run(20 * time.Second)
	if freed != 4 {
		t.Fatalf("relinquished %d, want 4", freed)
	}
	// 2 came from the unused pool; 2 required cleaning dirty pages.
	if drv.Stats.PageOuts < 2 {
		t.Fatalf("pageouts = %d", drv.Stats.PageOuts)
	}
	// The freed frames sit unused at the top of the stack.
	top := d.MemClient().Stack().Top(4)
	for _, e := range top {
		if s, _ := sys.RamTab.State(e.PFN); s != mem.Unused {
			t.Fatalf("top-of-stack frame %d is %v", e.PFN, s)
		}
	}
	sys.Shutdown()
	sys.RunUntilIdle(1 << 22)
}

func TestSecondChanceSparesCounter(t *testing.T) {
	sys := rig(64)
	d, _ := sys.NewDomain("app", cpuQ(), mem.Contract{Guaranteed: 2})
	st, gdrv, err := sys.NewStretch(d, core.PagerSpec{
		Kind:      core.KindPaged,
		Size:      6 * vm.PageSize,
		SwapBytes: 32 * vm.PageSize,
		DiskQoS:   diskQ(),
		Policy:    stretchdrv.PolicySecondChance,
	})
	if err != nil {
		t.Fatal(err)
	}
	drv := gdrv.(*stretchdrv.Paged)
	d.Go("main", func(th *domain.Thread) {
		core.PreallocateFrames(th, 2)
		for pass := 0; pass < 4; pass++ {
			th.Touch(st.Base(), 6*vm.PageSize, vm.AccessRead)
		}
	})
	sys.Run(30 * time.Second)
	if drv.Stats.Spares == 0 {
		t.Fatal("second chance never spared a page")
	}
	sys.Shutdown()
	sys.RunUntilIdle(1 << 22)
}

func TestNailedDriverBehaviour(t *testing.T) {
	sys := rig(64)
	d, _ := sys.NewDomain("app", cpuQ(), mem.Contract{Guaranteed: 4})
	var drv *stretchdrv.Nailed
	d.Go("main", func(th *domain.Thread) {
		var err error
		_, drv, err = sys.NewNailedStretch(th, 2*vm.PageSize)
		if err != nil {
			t.Error(err)
			return
		}
		if drv.DriverName() != "nailed" {
			t.Errorf("name = %q", drv.DriverName())
		}
		// Nailed frames are immune to relinquish.
		if got := drv.Relinquish(th.Proc(), 2); got != 0 {
			t.Errorf("relinquish = %d", got)
		}
		// A fault reaching a nailed driver is unresolvable.
		if res := drv.SatisfyFault(th.Proc(), &vm.Fault{Class: vm.PageFault}, true); res != domain.Failure {
			t.Errorf("fault result = %v", res)
		}
	})
	sys.Run(5 * time.Second)
	if drv == nil {
		t.Fatal("driver not created")
	}
	sys.Shutdown()
	sys.RunUntilIdle(1 << 20)
}

func TestPhysicalDriverRelinquishOnlyUnused(t *testing.T) {
	sys := rig(64)
	d, _ := sys.NewDomain("app", cpuQ(), mem.Contract{Guaranteed: 6})
	st, drv, _ := sys.NewPhysicalStretch(d, 4*vm.PageSize)
	var got int
	d.Go("main", func(th *domain.Thread) {
		core.PreallocateFrames(th, 6)
		th.Touch(st.Base(), 4*vm.PageSize, vm.AccessWrite) // 4 mapped, 2 unused
		got = drv.Relinquish(th.Proc(), 6)
	})
	sys.Run(5 * time.Second)
	// Physical drivers have no backing store: only the 2 unused frames can
	// be given up; mapped data would be lost.
	if got != 2 {
		t.Fatalf("relinquish = %d, want 2", got)
	}
	sys.Shutdown()
	sys.RunUntilIdle(1 << 20)
}

func TestStreamingDriverBasics(t *testing.T) {
	sys := rig(256)
	d, _ := sys.NewDomain("app", cpuQ(), mem.Contract{Guaranteed: 12})
	st, drv, err := sys.NewStreamingStretch(d, 32*vm.PageSize, 64*vm.PageSize,
		diskQ(), atropos.QoS{P: 250 * time.Millisecond, S: 50 * time.Millisecond, X: true, L: 10 * time.Millisecond}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if drv.DriverName() != "streaming" {
		t.Fatalf("name = %q", drv.DriverName())
	}
	verified := false
	d.Go("main", func(th *domain.Thread) {
		core.PreallocateFrames(th, 12)
		// Write all pages out, then stream them back twice.
		buf := make([]byte, vm.PageSize)
		for pg := 0; pg < 32; pg++ {
			for i := range buf {
				buf[i] = byte(pg ^ i)
			}
			if err := th.WriteAt(st.PageBase(pg), buf); err != nil {
				t.Error(err)
				return
			}
		}
		for pass := 0; pass < 2; pass++ {
			for pg := 0; pg < 32; pg++ {
				if err := th.ReadAt(st.PageBase(pg), buf); err != nil {
					t.Error(err)
					return
				}
				for i := range buf {
					if buf[i] != byte(pg^i) {
						t.Errorf("pass %d page %d corrupted", pass, pg)
						return
					}
				}
			}
		}
		verified = true
	})
	sys.Run(60 * time.Second)
	if !verified {
		t.Fatal("stream verification incomplete")
	}
	if drv.Prefetches == 0 {
		t.Fatal("no prefetches on a sequential scan")
	}
	// A fault that waited for a prefetch in flight counts once, as every
	// other fault on the stretch does.
	if drv.PrefetchedUsed == 0 {
		t.Fatal("no fault waited for a prefetch")
	}
	if got, want := drv.Stats.Faults, d.Stats().PageFaults; got != want {
		t.Fatalf("driver counted %d faults, the domain took %d", got, want)
	}
	sys.Shutdown()
	sys.RunUntilIdle(1 << 22)
}

// BenchmarkPagedWorkerFault prices one worker-path fault on the host: see
// workerFaults.
func BenchmarkPagedWorkerFault(b *testing.B) {
	b.ReportAllocs()
	workerFaults(b, b.N, b.ResetTimer)
	b.StopTimer()
}

// TestWorkerPathFaultCountsOnce pins PagerStats.Faults to faults, not
// driver entries: a worker-path fault enters the driver twice.
func TestWorkerPathFaultCountsOnce(t *testing.T) {
	workerFaults(t, 10, func() {})
}

// workerFaults makes n worker-path faults after calling start. A paged
// stretch of three pages runs on two frames, and every page already has a
// current swap copy, so each read in the cyclic loop faults: the worker
// evicts one clean page and pages the faulting one in from swap through
// the USD. It fails tb unless the driver counted n faults, none of them
// fast, n clean victims and n page-ins.
func workerFaults(tb testing.TB, n int, start func()) {
	const pages = 3
	sys := rig(256)
	d, _ := sys.NewDomain("app", cpuQ(), mem.Contract{Guaranteed: 2})
	st, drv, err := sys.NewPagedStretch(d, pages*vm.PageSize, 32*vm.PageSize, diskQ())
	if err != nil {
		tb.Fatal(err)
	}
	warmed := false
	d.Go("warm", func(th *domain.Thread) {
		core.PreallocateFrames(th, 2)
		// A write pass puts every page in swap; a read pass leaves the
		// resident ones clean.
		th.Touch(st.Base(), pages*vm.PageSize, vm.AccessWrite)
		th.Touch(st.Base(), pages*vm.PageSize, vm.AccessRead)
		warmed = true
	})
	for !warmed {
		sys.Run(time.Second)
	}
	before := drv.Stats
	done := false
	start()
	d.Go("main", func(th *domain.Thread) {
		for i := 0; i < n; i++ {
			if err := th.Touch(st.PageBase(i%pages), vm.PageSize, vm.AccessRead); err != nil {
				return
			}
		}
		done = true
	})
	for !done {
		sys.Run(time.Second)
	}
	// Each fault enters the driver twice, and counts once: the fast path
	// retries it to the worker, which evicts and pages in.
	s := drv.Stats
	if k := int64(n); s.Faults-before.Faults != k || s.FastFaults != before.FastFaults ||
		s.CleanVictims-before.CleanVictims != k || s.PageIns-before.PageIns != k || s.PageOuts != before.PageOuts {
		tb.Fatalf("%d touches gave %+v, from %+v", n, s, before)
	}
	sys.Shutdown()
}
