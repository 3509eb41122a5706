package domain

import (
	"errors"
	"testing"
	"time"

	"nemesis/internal/atropos"
	"nemesis/internal/cpu"
	"nemesis/internal/mem"
	"nemesis/internal/sim"
	"nemesis/internal/vm"
)

// rig is a minimal world for domain tests: simulator, translation system,
// stretch allocator, frames allocator and CPU scheduler.
type rig struct {
	s      *sim.Simulator
	env    Env
	frames *mem.FramesAllocator
	sched  *cpu.Scheduler
}

func newRig() *rig {
	s := sim.New(1)
	store := mem.NewFrameStore(64)
	rt := mem.NewRamTab(64)
	ts := vm.NewTranslationSystem(rt)
	sa := vm.NewStretchAllocator(ts, 0x1000000, 0x9000000)
	sched := cpu.NewScheduler(s)
	return &rig{
		s:      s,
		env:    Env{Sim: s, TS: ts, SA: sa, Store: store, RamTab: rt, Costs: cpu.DefaultCosts()},
		frames: mem.NewFramesAllocator(s, store, rt),
		sched:  sched,
	}
}

// domain builds a domain with generous contracts.
func (r *rig) domain(t *testing.T, name string, frames uint64) *Domain {
	t.Helper()
	pd, err := r.env.TS.NewProtectionDomain()
	if err != nil {
		t.Fatal(err)
	}
	cpuDom, err := r.sched.Admit(name, atropos.QoS{P: 100 * time.Millisecond, S: 20 * time.Millisecond, X: true})
	if err != nil {
		t.Fatal(err)
	}
	id := r.nextID()
	memc, err := r.frames.Admit(id, mem.Contract{Guaranteed: frames}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := New(&r.env, id, name, pd, cpuDom, memc)
	memc.SetHandler(d)
	return d
}

var rigIDs mem.DomainID

func (r *rig) nextID() mem.DomainID {
	rigIDs++
	return rigIDs
}

// fixedDriver maps the faulted page to a pre-granted frame.
type fixedDriver struct {
	rig    *rig
	dom    *Domain
	st     *vm.Stretch
	result Result // forced result, or Success-path when 0
	calls  int
	idc    []bool
}

func (f *fixedDriver) DriverName() string { return "fixed" }

func (f *fixedDriver) SatisfyFault(p *sim.Proc, fault *vm.Fault, canIDC bool) Result {
	f.calls++
	f.idc = append(f.idc, canIDC)
	if f.result != Success {
		return f.result
	}
	pfn, err := f.dom.MemClient().TryAllocFrame()
	if err != nil {
		return Failure
	}
	va := vm.PageOf(fault.VA).Base()
	if err := f.rig.env.TS.Map(f.dom.PD(), f.dom.ID(), va, pfn, vm.DefaultAttr()); err != nil {
		return Failure
	}
	return Success
}

func (f *fixedDriver) Relinquish(p *sim.Proc, k int) int { return 0 }

func TestResultString(t *testing.T) {
	if Success.String() != "success" || Retry.String() != "retry" || Failure.String() != "failure" {
		t.Fatal("result strings")
	}
	if Result(7).String() != "result(7)" {
		t.Fatal("unknown result string")
	}
}

func TestNewStretchGrantsRights(t *testing.T) {
	r := newRig()
	d := r.domain(t, "a", 8)
	st, err := d.NewStretch(2 * vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	rights := d.PD().RightsOn(st.ID())
	if !rights.Has(vm.Read | vm.Write | vm.Execute | vm.Meta) {
		t.Fatalf("rights = %v", rights)
	}
}

func TestFaultDispatchFastPath(t *testing.T) {
	r := newRig()
	d := r.domain(t, "a", 8)
	st, _ := d.NewStretch(4 * vm.PageSize)
	drv := &fixedDriver{rig: r, dom: d, st: st}
	d.Bind(st, drv)
	if d.DriverFor(st.ID()) != drv {
		t.Fatal("DriverFor")
	}
	var done bool
	d.Go("main", func(th *Thread) {
		if err := th.Touch(st.Base(), 4*vm.PageSize, vm.AccessWrite); err != nil {
			t.Error(err)
			return
		}
		done = true
	})
	r.s.RunFor(time.Second)
	if !done {
		t.Fatal("thread incomplete")
	}
	stats := d.Stats()
	if stats.PageFaults != 4 || stats.FastPath != 4 || stats.WorkerPath != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// The driver was always called without IDC (fast path succeeded).
	for _, idc := range drv.idc {
		if idc {
			t.Fatal("fast path saw canIDC=true")
		}
	}
	if d.FaultEventValue() != 4 {
		t.Fatalf("fault events = %d", d.FaultEventValue())
	}
	if stats.BytesTouched != 4*vm.PageSize {
		t.Fatalf("BytesTouched = %d", stats.BytesTouched)
	}
}

// retryOnceDriver forces the first attempt (per fault) to Retry so the
// worker path runs.
type retryOnceDriver struct {
	fixedDriver
}

func (rd *retryOnceDriver) SatisfyFault(p *sim.Proc, f *vm.Fault, canIDC bool) Result {
	if !canIDC {
		rd.calls++
		return Retry
	}
	return rd.fixedDriver.SatisfyFault(p, f, canIDC)
}

func TestFaultDispatchWorkerPath(t *testing.T) {
	r := newRig()
	d := r.domain(t, "a", 8)
	st, _ := d.NewStretch(2 * vm.PageSize)
	drv := &retryOnceDriver{fixedDriver{rig: r, dom: d, st: st}}
	d.Bind(st, drv)
	var done bool
	d.Go("main", func(th *Thread) {
		if err := th.Touch(st.Base(), 2*vm.PageSize, vm.AccessRead); err != nil {
			t.Error(err)
			return
		}
		done = true
	})
	r.s.RunFor(time.Second)
	if !done {
		t.Fatal("thread incomplete")
	}
	stats := d.Stats()
	if stats.WorkerPath != 2 || stats.FastPath != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestFaultNoDriverKills(t *testing.T) {
	r := newRig()
	d := r.domain(t, "a", 8)
	st, _ := d.NewStretch(vm.PageSize)
	// No Bind.
	after := false
	d.Go("main", func(th *Thread) {
		th.Touch(st.Base(), 1, vm.AccessRead)
		after = true
	})
	r.s.RunFor(time.Second)
	if after {
		t.Fatal("thread survived unresolvable fault")
	}
	if !d.Killed() {
		t.Fatal("domain not killed")
	}
}

func TestDriverFailureKills(t *testing.T) {
	r := newRig()
	d := r.domain(t, "a", 8)
	st, _ := d.NewStretch(vm.PageSize)
	d.Bind(st, &fixedDriver{rig: r, dom: d, st: st, result: Failure})
	d.Go("main", func(th *Thread) {
		th.Touch(st.Base(), 1, vm.AccessRead)
	})
	r.s.RunFor(time.Second)
	if !d.Killed() {
		t.Fatal("domain not killed on driver failure")
	}
}

func TestUnallocatedFaultKills(t *testing.T) {
	r := newRig()
	d := r.domain(t, "a", 8)
	d.Go("main", func(th *Thread) {
		th.Touch(vm.VA(0x8f00000), 1, vm.AccessRead) // no stretch there
	})
	r.s.RunFor(time.Second)
	if !d.Killed() {
		t.Fatal("unallocated access did not kill")
	}
	if d.Stats().UnallocFaults != 1 {
		t.Fatalf("stats = %+v", d.Stats())
	}
}

func TestCustomHandlerOverride(t *testing.T) {
	r := newRig()
	d := r.domain(t, "a", 8)
	st, _ := d.NewStretch(vm.PageSize)
	drv := &fixedDriver{rig: r, dom: d, st: st}
	d.Bind(st, drv)
	handled := 0
	d.SetFaultHandler(vm.PageFault, func(th *Thread, f *vm.Fault) bool {
		handled++
		// Resolve by mapping through the driver logic manually.
		return drv.SatisfyFault(th.Proc(), f, true) == Success
	})
	done := false
	d.Go("main", func(th *Thread) {
		if err := th.Touch(st.Base(), 1, vm.AccessRead); err != nil {
			t.Error(err)
			return
		}
		done = true
	})
	r.s.RunFor(time.Second)
	if !done || handled != 1 {
		t.Fatalf("done=%v handled=%d", done, handled)
	}
	// Clearing the handler restores the default path.
	d.SetFaultHandler(vm.PageFault, nil)
	if len(d.handlers) != 0 {
		t.Fatal("handler not removed")
	}
}

func TestHandlerDeclineFails(t *testing.T) {
	r := newRig()
	d := r.domain(t, "a", 8)
	st, _ := d.NewStretch(vm.PageSize)
	d.Bind(st, &fixedDriver{rig: r, dom: d, st: st})
	d.SetFaultHandler(vm.PageFault, func(th *Thread, f *vm.Fault) bool { return false })
	var got error
	d.Go("main", func(th *Thread) {
		got = th.Touch(st.Base(), 1, vm.AccessRead)
	})
	r.s.RunFor(time.Second)
	if !errors.Is(got, ErrFaulted) {
		t.Fatalf("err = %v", got)
	}
}

func TestThreadJoinAndSleep(t *testing.T) {
	r := newRig()
	d := r.domain(t, "a", 8)
	worker := d.Go("worker", func(th *Thread) {
		th.Sleep(5 * time.Millisecond)
	})
	var joinedAt sim.Time
	d.Go("joiner", func(th *Thread) {
		worker.Join(th.Proc())
		joinedAt = th.Now()
	})
	r.s.RunFor(time.Second)
	if joinedAt != sim.Time(5*time.Millisecond) {
		t.Fatalf("joined at %v", joinedAt)
	}
	// Join on a finished thread returns immediately.
	var second sim.Time = -1
	d.Go("late", func(th *Thread) {
		worker.Join(th.Proc())
		second = th.Now()
	})
	r.s.RunFor(time.Second)
	if second < 0 {
		t.Fatal("late joiner never returned")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	r := newRig()
	d := r.domain(t, "a", 8)
	st, _ := d.NewStretch(3 * vm.PageSize)
	d.Bind(st, &fixedDriver{rig: r, dom: d, st: st})
	ok := false
	d.Go("main", func(th *Thread) {
		// Write a pattern spanning page boundaries.
		data := make([]byte, 2*vm.PageSize+100)
		for i := range data {
			data[i] = byte(i % 179)
		}
		base := st.Base() + 50
		if err := th.WriteAt(base, data); err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, len(data))
		if err := th.ReadAt(base, got); err != nil {
			t.Error(err)
			return
		}
		for i := range got {
			if got[i] != data[i] {
				t.Errorf("byte %d = %d, want %d", i, got[i], data[i])
				return
			}
		}
		if b, err := th.ReadByteAt(base + 7); err != nil || b != byte(7%179) {
			t.Errorf("ReadByteAt = %d, %v", b, err)
		}
		if err := th.WriteByteAt(base, 0xFF); err != nil {
			t.Error(err)
		}
		if b, _ := th.ReadByteAt(base); b != 0xFF {
			t.Error("WriteByteAt lost")
		}
		ok = true
	})
	r.s.RunFor(time.Second)
	if !ok {
		t.Fatal("round trip incomplete")
	}
}

func TestRevocationNotificationQueued(t *testing.T) {
	r := newRig()
	d := r.domain(t, "a", 8)
	st, _ := d.NewStretch(vm.PageSize)
	d.Bind(st, &fixedDriver{rig: r, dom: d, st: st})
	d.RevokeNotification(1, r.s.Now().Add(100*time.Millisecond))
	r.s.RunFor(10 * time.Millisecond)
	if d.Stats().Revocations != 1 {
		t.Fatalf("revocations = %d", d.Stats().Revocations)
	}
	// The worker consumed the job (driver relinquishes 0, completion is
	// still signalled to the allocator — covered by core tests).
	if d.mm.QueueLen() != 0 {
		t.Fatalf("queue = %d", d.mm.QueueLen())
	}
}

func TestKillIsIdempotentAndStopsWork(t *testing.T) {
	r := newRig()
	d := r.domain(t, "a", 8)
	st, _ := d.NewStretch(vm.PageSize)
	d.Bind(st, &fixedDriver{rig: r, dom: d, st: st})
	loops := 0
	d.Go("spinner", func(th *Thread) {
		for {
			th.Sleep(time.Millisecond)
			loops++
		}
	})
	r.s.RunFor(10 * time.Millisecond)
	before := loops
	d.Kill()
	d.Kill() // idempotent
	r.s.RunFor(50 * time.Millisecond)
	if loops > before+1 {
		t.Fatalf("spinner kept running after kill: %d -> %d", before, loops)
	}
	// Faults after kill fail immediately.
	var err error
	other := d.Go("late", func(th *Thread) {
		err = th.Touch(st.Base(), 1, vm.AccessRead)
	})
	_ = other
	r.s.RunFor(10 * time.Millisecond)
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("post-kill touch err = %v", err)
	}
}

func TestDriverListDeterministicOrder(t *testing.T) {
	r := newRig()
	d := r.domain(t, "a", 8)
	var sts []*vm.Stretch
	for i := 0; i < 5; i++ {
		st, _ := d.NewStretch(vm.PageSize)
		d.Bind(st, &fixedDriver{rig: r, dom: d, st: st})
		sts = append(sts, st)
	}
	// Bind one driver to two stretches: it must appear once.
	shared := &fixedDriver{rig: r, dom: d}
	st6, _ := d.NewStretch(vm.PageSize)
	st7, _ := d.NewStretch(vm.PageSize)
	d.Bind(st6, shared)
	d.Bind(st7, shared)

	l1 := d.driverList()
	l2 := d.driverList()
	if len(l1) != 6 {
		t.Fatalf("len = %d, want 6 (dedup)", len(l1))
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatal("driverList order nondeterministic")
		}
	}
}

func TestEnvAccessors(t *testing.T) {
	r := newRig()
	d := r.domain(t, "acc", 2)
	if d.Env().Sim != r.s || d.CPU() == nil || d.PD() == nil {
		t.Fatal("accessors")
	}
	th := d.Go("t", func(th *Thread) {})
	if th.Name() != "t" || th.Domain() != d {
		t.Fatal("thread accessors")
	}
	r.s.RunFor(time.Millisecond)
}
