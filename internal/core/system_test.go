package core

import (
	"errors"
	"testing"
	"time"

	"nemesis/internal/atropos"
	"nemesis/internal/disk"
	"nemesis/internal/domain"
	"nemesis/internal/mem"
	"nemesis/internal/stretchdrv"
	"nemesis/internal/vm"
)

func ms(n int64) time.Duration { return time.Duration(n) * time.Millisecond }

// smallSystem returns a system with a modest memory so tests run fast.
func smallSystem() *System {
	cfg := DefaultConfig()
	cfg.MemoryFrames = 64 // 512 KB
	return New(cfg)
}

func cpuShare() atropos.QoS {
	return atropos.QoS{P: ms(100), S: ms(20), X: true, L: 0}
}

func diskShare() atropos.QoS {
	return atropos.QoS{P: ms(250), S: ms(200), L: ms(10)}
}

func TestNewDomainAdmission(t *testing.T) {
	sys := smallSystem()
	d, err := sys.NewDomain("app", cpuShare(), mem.Contract{Guaranteed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if d.ID() != 1 || d.Name() != "app" {
		t.Fatalf("id=%d name=%q", d.ID(), d.Name())
	}
	if sys.Domain(1) != d || sys.Domain(99) != nil {
		t.Fatal("Domain lookup")
	}
	if len(sys.Domains()) != 1 {
		t.Fatal("Domains")
	}
	// Overcommitted guarantee rejected, and partial registrations undone.
	if _, err := sys.NewDomain("hog", cpuShare(), mem.Contract{Guaranteed: 100}); !errors.Is(err, mem.ErrOverbooked) {
		t.Fatalf("err = %v", err)
	}
	// CPU name was released on rollback: re-admission works.
	if _, err := sys.NewDomain("hog", cpuShare(), mem.Contract{Guaranteed: 8}); err != nil {
		t.Fatalf("rollback leaked CPU admission: %v", err)
	}
}

// TestPhysicalStretchDemandZero exercises the whole fast path: allocate,
// bind, touch, verify zero-fill and frame accounting.
func TestPhysicalStretchDemandZero(t *testing.T) {
	sys := smallSystem()
	d, _ := sys.NewDomain("app", cpuShare(), mem.Contract{Guaranteed: 8})
	st, drv, err := sys.NewPhysicalStretch(d, 4*vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	var checked bool
	d.Go("main", func(th *domain.Thread) {
		if err := PreallocateFrames(th, 4); err != nil {
			t.Error(err)
			return
		}
		if err := th.Touch(st.Base(), 4*vm.PageSize, vm.AccessRead); err != nil {
			t.Error(err)
			return
		}
		b, err := th.ReadByteAt(st.Base() + 12345)
		if err != nil || b != 0 {
			t.Errorf("demand-zero byte = %d, %v", b, err)
			return
		}
		checked = true
	})
	sys.Run(5 * time.Second)
	if !checked {
		t.Fatal("thread did not finish")
	}
	if got := d.MemClient().Allocated(); got != 4 {
		t.Fatalf("frames = %d", got)
	}
	stats := d.Stats()
	if stats.PageFaults != 4 {
		t.Fatalf("page faults = %d, want 4", stats.PageFaults)
	}
	if stats.FastPath != 4 || stats.WorkerPath != 0 {
		t.Fatalf("fast=%d worker=%d; preallocated frames should all fast-path", stats.FastPath, stats.WorkerPath)
	}
	if drv.Stats.Faults != 4 {
		t.Fatalf("driver faults = %d", drv.Stats.Faults)
	}
	sys.Shutdown()
	sys.RunUntilIdle(1 << 20)
}

// TestPhysicalStretchWorkerPath: with no preallocated frames the fast path
// must Retry and the worker must fetch frames from the allocator.
func TestPhysicalStretchWorkerPath(t *testing.T) {
	sys := smallSystem()
	d, _ := sys.NewDomain("app", cpuShare(), mem.Contract{Guaranteed: 8})
	st, _, _ := sys.NewPhysicalStretch(d, 2*vm.PageSize)
	d.Go("main", func(th *domain.Thread) {
		th.Touch(st.Base(), 2*vm.PageSize, vm.AccessWrite)
	})
	sys.Run(time.Second)
	stats := d.Stats()
	if stats.WorkerPath != 2 || stats.FastPath != 0 {
		t.Fatalf("fast=%d worker=%d", stats.FastPath, stats.WorkerPath)
	}
	sys.Shutdown()
	sys.RunUntilIdle(1 << 20)
}

// TestPagedStretchSwapIntegrity is the core correctness test of the whole
// reproduction: a domain with 2 physical frames writes a distinctive
// pattern across a 64-page stretch (forcing dozens of evictions to swap),
// then reads everything back and verifies every byte survived the round
// trips through the USD and the simulated disk.
func TestPagedStretchSwapIntegrity(t *testing.T) {
	sys := smallSystem()
	d, _ := sys.NewDomain("app", cpuShare(), mem.Contract{Guaranteed: 2})
	st, drv, err := sys.NewPagedStretch(d, 64*vm.PageSize, 128*vm.PageSize, diskShare())
	if err != nil {
		t.Fatal(err)
	}
	pattern := func(i int) byte { return byte((i*7 + i/vm.PageSize) % 251) }
	var verified bool
	d.Go("main", func(th *domain.Thread) {
		if err := PreallocateFrames(th, 2); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, vm.PageSize)
		for pg := 0; pg < 64; pg++ {
			for i := range buf {
				buf[i] = pattern(pg*vm.PageSize + i)
			}
			if err := th.WriteAt(st.PageBase(pg), buf); err != nil {
				t.Errorf("write page %d: %v", pg, err)
				return
			}
		}
		for pg := 0; pg < 64; pg++ {
			if err := th.ReadAt(st.PageBase(pg), buf); err != nil {
				t.Errorf("read page %d: %v", pg, err)
				return
			}
			for i := range buf {
				if buf[i] != pattern(pg*vm.PageSize+i) {
					t.Errorf("page %d byte %d = %d, want %d", pg, i, buf[i], pattern(pg*vm.PageSize+i))
					return
				}
			}
		}
		verified = true
	})
	sys.Run(60 * time.Second)
	if !verified {
		t.Fatal("verification did not complete")
	}
	if drv.Stats.PageOuts < 60 {
		t.Fatalf("PageOuts = %d; eviction barely exercised", drv.Stats.PageOuts)
	}
	if drv.Stats.PageIns < 60 {
		t.Fatalf("PageIns = %d", drv.Stats.PageIns)
	}
	if d.MemClient().Allocated() != 2 {
		t.Fatalf("domain holds %d frames, contracted 2", d.MemClient().Allocated())
	}
	if drv.ResidentPages() > 2 {
		t.Fatalf("resident = %d with 2 frames", drv.ResidentPages())
	}
	sys.Shutdown()
	sys.RunUntilIdle(1 << 22)
}

// TestForgetfulDriverNeverPagesIn: the Fig. 8 stretch driver writes out
// but never reads back.
func TestForgetfulDriverNeverPagesIn(t *testing.T) {
	sys := smallSystem()
	d, _ := sys.NewDomain("app", cpuShare(), mem.Contract{Guaranteed: 2})
	st, gdrv, err := sys.NewStretch(d, PagerSpec{
		Kind:      KindPaged,
		Size:      16 * vm.PageSize,
		SwapBytes: 64 * vm.PageSize,
		DiskQoS:   diskShare(),
		Writeback: stretchdrv.WritebackForgetful,
	})
	if err != nil {
		t.Fatal(err)
	}
	drv := gdrv.(*stretchdrv.Paged)
	d.Go("main", func(th *domain.Thread) {
		PreallocateFrames(th, 2)
		for pass := 0; pass < 3; pass++ {
			if err := th.Touch(st.Base(), 16*vm.PageSize, vm.AccessWrite); err != nil {
				t.Error(err)
				return
			}
		}
	})
	sys.Run(30 * time.Second)
	if drv.Stats.PageIns != 0 {
		t.Fatalf("forgetful driver paged in %d times", drv.Stats.PageIns)
	}
	if drv.Stats.PageOuts < 30 {
		t.Fatalf("PageOuts = %d", drv.Stats.PageOuts)
	}
	sys.Shutdown()
	sys.RunUntilIdle(1 << 22)
}

// NewStretch builds no driver for a spec that does not name one it can
// build; in particular, it infers no kind from the other fields.
func TestNewStretchRejectsSpec(t *testing.T) {
	sys := smallSystem()
	d, _ := sys.NewDomain("app", cpuShare(), mem.Contract{Guaranteed: 2})
	for _, c := range []struct {
		name string
		spec PagerSpec
	}{
		{"no kind", PagerSpec{Size: 4 * vm.PageSize, SwapBytes: 8 * vm.PageSize, DiskQoS: diskShare()}},
		{"streaming over remote", PagerSpec{Kind: KindStreaming, Size: 4 * vm.PageSize, Backing: BackingRemote}},
		{"nailed without thread", PagerSpec{Kind: KindNailed, Size: 4 * vm.PageSize}},
		{"mapped without file", PagerSpec{Kind: KindMapped}},
		{"tiered without local tier", PagerSpec{Kind: KindPaged, Size: 4 * vm.PageSize, Backing: BackingTiered}},
	} {
		if _, drv, err := sys.NewStretch(d, c.spec); err == nil {
			t.Errorf("%s: built a %T", c.name, drv)
		}
	}
}

// A spec NewStretch rejects leaves nothing behind, whether the spec alone
// is wrong (a tiered backing without a local tier) or its backing fails
// once the stretch exists (a swap file larger than the partition, a
// prefetch channel the disk cannot admit): no stretch in the VA window the
// failed calls reached, no rights or driver for their stretch IDs, and no
// swap space taken.
func TestRejectedSpecLeavesNothing(t *testing.T) {
	sys := smallSystem()
	d, _ := sys.NewDomain("app", cpuShare(), mem.Contract{Guaranteed: 2})
	free := sys.SFS.FreeBlocks()
	for _, spec := range []PagerSpec{
		{Kind: KindPaged, Size: 4 * vm.PageSize, Backing: BackingTiered},
		{Kind: KindPaged, Size: 4 * vm.PageSize, SwapBytes: (free + 1) * disk.BlockSize, DiskQoS: diskShare()},
		{Kind: KindStreaming, Size: 4 * vm.PageSize, SwapBytes: 8 * vm.PageSize, DiskQoS: diskShare(), PrefetchQoS: diskShare()},
	} {
		if _, drv, err := sys.NewStretch(d, spec); err == nil {
			t.Fatalf("%+v: built a %T", spec, drv)
		}
	}
	// The next stretch shows how far the failed calls got.
	next, _, err := sys.NewStretch(d, PagerSpec{Kind: KindPhysical, Size: vm.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	for va := vaLow; va < next.Base(); va += vm.PageSize {
		if st := sys.SA.Find(va); st != nil {
			t.Fatalf("rejected spec left %v", st)
		}
	}
	for id := vm.StretchID(0); id < next.ID(); id++ {
		if r := d.PD().RightsOn(id); r != 0 {
			t.Errorf("rights %v left on stretch %d", r, id)
		}
		if drv := d.DriverFor(id); drv != nil {
			t.Errorf("driver %T left on stretch %d", drv, id)
		}
	}
	if got := sys.SFS.FreeBlocks(); got != free {
		t.Errorf("swap space: %d blocks free, want %d", got, free)
	}
}

// A nailed stretch whose binding runs out of frames partway leaves nothing
// behind: the pages it nailed are unnailed, unmapped and freed, and the
// stretch is destroyed, so the domain holds no stretch in its window, no
// rights, no driver and no frames, and the frames it took nail a smaller
// stretch next.
func TestFailedNailedBindLeavesNothing(t *testing.T) {
	sys := smallSystem()
	d, _ := sys.NewDomain("app", cpuShare(), mem.Contract{Guaranteed: 2})
	var bindErr error
	var next *vm.Stretch
	d.Go("main", func(th *domain.Thread) {
		_, _, bindErr = sys.NewNailedStretch(th, 4*vm.PageSize)
		var err error
		if next, _, err = sys.NewNailedStretch(th, 2*vm.PageSize); err != nil {
			t.Error(err)
		}
	})
	sys.Run(time.Second)
	if !errors.Is(bindErr, mem.ErrContractExhausted) {
		t.Fatalf("4 pages under a 2-frame contract: err = %v", bindErr)
	}
	if next == nil {
		t.Fatal("second stretch not created")
	}
	for va := vaLow; va < next.Base(); va += vm.PageSize {
		if st := sys.SA.Find(va); st != nil {
			t.Fatalf("failed binding left %v", st)
		}
	}
	for id := vm.StretchID(0); id < next.ID(); id++ {
		if r := d.PD().RightsOn(id); r != 0 {
			t.Errorf("rights %v left on stretch %d", r, id)
		}
		if drv := d.DriverFor(id); drv != nil {
			t.Errorf("driver %T left on stretch %d", drv, id)
		}
	}
	if n := d.MemClient().Allocated(); n != 2 {
		t.Errorf("domain holds %d frames, want the second stretch's 2", n)
	}
	for i := 0; i < next.Pages(); i++ {
		pfn, _, err := sys.TS.Trans(next.PageBase(i))
		if err != nil {
			t.Fatal(err)
		}
		if s, _ := sys.RamTab.State(pfn); s != mem.Nailed {
			t.Errorf("page %d of the second stretch: frame %d is %v", i, pfn, s)
		}
	}
	sys.Shutdown()
	sys.RunUntilIdle(1 << 20)
}

// TestNailedStretchNeverFaults: after binding, accesses are fault-free.
func TestNailedStretchNeverFaults(t *testing.T) {
	sys := smallSystem()
	d, _ := sys.NewDomain("app", cpuShare(), mem.Contract{Guaranteed: 8})
	var st *vm.Stretch
	d.Go("main", func(th *domain.Thread) {
		var err error
		st, _, err = sys.NewNailedStretch(th, 4*vm.PageSize)
		if err != nil {
			t.Error(err)
			return
		}
		base := d.Stats().Faults
		if err := th.Touch(st.Base(), 4*vm.PageSize, vm.AccessWrite); err != nil {
			t.Error(err)
			return
		}
		if d.Stats().Faults != base {
			t.Errorf("nailed stretch faulted %d times", d.Stats().Faults-base)
		}
	})
	sys.Run(5 * time.Second)
	if st == nil {
		t.Fatal("stretch not created")
	}
	// Frames are nailed in the RamTab.
	pfn, _, err := sys.TS.Trans(st.Base())
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := sys.RamTab.State(pfn); s != mem.Nailed {
		t.Fatalf("state = %v", s)
	}
	sys.Shutdown()
	sys.RunUntilIdle(1 << 20)
}

// TestProtectionFaultKillsDomain: no safety net.
func TestProtectionFaultKillsDomain(t *testing.T) {
	sys := smallSystem()
	victim, _ := sys.NewDomain("victim", cpuShare(), mem.Contract{Guaranteed: 4})
	other, _ := sys.NewDomain("other", cpuShare(), mem.Contract{Guaranteed: 4})
	st, _, _ := sys.NewPhysicalStretch(victim, vm.PageSize)
	reachedAfter := false
	// other's protection domain has no rights on victim's stretch. The
	// kill unwinds the intruding thread mid-call, so code after the touch
	// never runs.
	other.Go("intruder", func(th *domain.Thread) {
		th.Touch(st.Base(), 1, vm.AccessRead)
		reachedAfter = true
	})
	sys.Run(time.Second)
	if reachedAfter {
		t.Fatal("intruding thread survived the fault")
	}
	if !other.Killed() {
		t.Fatal("intruder survived an unhandled protection fault")
	}
	if victim.Killed() {
		t.Fatal("victim killed")
	}
	sys.Shutdown()
	sys.RunUntilIdle(1 << 20)
}

// TestCustomFaultHandler: overriding the protection fault type (the appel
// benchmark pattern) rescues the thread.
func TestCustomFaultHandler(t *testing.T) {
	sys := smallSystem()
	d, _ := sys.NewDomain("app", cpuShare(), mem.Contract{Guaranteed: 4})
	st, _, _ := sys.NewPhysicalStretch(d, vm.PageSize)
	// Remove write permission via the PD path, install a handler that
	// regrants it on fault.
	handled := 0
	d.SetFaultHandler(vm.ProtectionFault, func(th *domain.Thread, f *vm.Fault) bool {
		handled++
		sys.TS.GrantInitial(d.PD(), st.ID(), vm.Read|vm.Write|vm.Meta)
		return true
	})
	var err2 error
	d.Go("main", func(th *domain.Thread) {
		PreallocateFrames(th, 1)
		th.Touch(st.Base(), 1, vm.AccessWrite) // map the page first
		sys.TS.GrantInitial(d.PD(), st.ID(), vm.Read|vm.Meta)
		err2 = th.Touch(st.Base(), 1, vm.AccessWrite)
	})
	sys.Run(time.Second)
	if err2 != nil {
		t.Fatalf("touch with handler: %v", err2)
	}
	if handled != 1 {
		t.Fatalf("handler ran %d times", handled)
	}
	if d.Killed() {
		t.Fatal("domain killed despite handler")
	}
	sys.Shutdown()
	sys.RunUntilIdle(1 << 20)
}

// TestRevocationEndToEnd: a hog with optimistic frames gets them revoked
// through the full domain/MMEntry/driver path, cleaning dirty pages to swap.
func TestRevocationEndToEnd(t *testing.T) {
	sys := smallSystem() // 64 frames
	hog, _ := sys.NewDomain("hog", cpuShare(), mem.Contract{Guaranteed: 4, Optimistic: 60})
	hogSt, hogDrv, _ := sys.NewPagedStretch(hog, 60*vm.PageSize, 128*vm.PageSize, atropos.QoS{P: ms(250), S: ms(100), L: ms(10)})
	hog.Go("main", func(th *domain.Thread) {
		// Touch 30 pages: allocates ~30 frames (4 guaranteed + optimistic).
		if err := th.Touch(hogSt.Base(), 30*vm.PageSize, vm.AccessWrite); err != nil {
			t.Error(err)
		}
	})
	sys.Run(5 * time.Second)
	if hog.MemClient().Allocated() < 20 {
		t.Fatalf("hog only got %d frames", hog.MemClient().Allocated())
	}

	// Now a needy domain claims its guarantee; free memory is 64-30-...
	// enough pressure comes from a large guarantee.
	needy, _ := sys.NewDomain("needy", cpuShare(), mem.Contract{Guaranteed: 50})
	var got int
	needy.Go("main", func(th *domain.Thread) {
		for i := 0; i < 50; i++ {
			if _, err := needy.MemClient().AllocFrame(th.Proc()); err != nil {
				t.Errorf("needy alloc %d: %v", i, err)
				return
			}
			got++
		}
	})
	sys.Run(30 * time.Second)
	if got != 50 {
		t.Fatalf("needy got %d frames", got)
	}
	if hog.Killed() {
		t.Fatal("cooperative hog was killed")
	}
	if hog.MemClient().Allocated() > 14 {
		t.Fatalf("hog still holds %d frames", hog.MemClient().Allocated())
	}
	if hog.Stats().Revocations == 0 {
		t.Fatal("no revocation notifications delivered")
	}
	if hogDrv.Stats.PageOuts == 0 {
		t.Fatal("revocation cleaned no dirty pages")
	}
	sys.Shutdown()
	sys.RunUntilIdle(1 << 22)
}

// TestSystemDeterminism: identical configs and workloads produce identical
// timelines and stats.
func TestSystemDeterminism(t *testing.T) {
	run := func() (sim int64, faults int64) {
		sys := smallSystem()
		d, _ := sys.NewDomain("app", cpuShare(), mem.Contract{Guaranteed: 2})
		st, _, _ := sys.NewPagedStretch(d, 16*vm.PageSize, 64*vm.PageSize, diskShare())
		d.Go("main", func(th *domain.Thread) {
			PreallocateFrames(th, 2)
			th.Touch(st.Base(), 16*vm.PageSize, vm.AccessWrite)
			th.Touch(st.Base(), 16*vm.PageSize, vm.AccessRead)
		})
		sys.Run(20 * time.Second)
		sys.Shutdown()
		return int64(sys.Sim.Now()), d.Stats().Faults
	}
	t1, f1 := run()
	t2, f2 := run()
	if t1 != t2 || f1 != f2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", t1, f1, t2, f2)
	}
}
