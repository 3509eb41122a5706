package core

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"nemesis/internal/atropos"
	"nemesis/internal/domain"
	"nemesis/internal/mem"
	"nemesis/internal/stretchdrv"
	"nemesis/internal/vm"
)

// warmPattern is the byte written to page pg offset i during the warm phase.
func warmPattern(pg, i int) byte { return byte((pg*31 + i*7) % 251) }

// warmWorld boots a small system with a 2-frame paged domain and warms it:
// a thread writes a distinctive pattern across 32 pages (forcing dozens of
// evictions to swap) and exits, leaving the world quiesced and forkable.
func warmWorld(t *testing.T) (*System, *domain.Domain, *vm.Stretch, *stretchdrv.Paged) {
	t.Helper()
	sys := smallSystem()
	d, err := sys.NewDomain("app", cpuShare(), mem.Contract{Guaranteed: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, drv, err := sys.NewPagedStretch(d, 32*vm.PageSize, 64*vm.PageSize, diskShare())
	if err != nil {
		t.Fatal(err)
	}
	d.Go("warm", func(th *domain.Thread) {
		if err := PreallocateFrames(th, 2); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, vm.PageSize)
		for pg := 0; pg < 32; pg++ {
			for i := range buf {
				buf[i] = warmPattern(pg, i)
			}
			if err := th.WriteAt(st.PageBase(pg), buf); err != nil {
				t.Errorf("warm write page %d: %v", pg, err)
				return
			}
		}
	})
	sys.Run(30 * time.Second)
	if drv.Stats.PageOuts == 0 {
		t.Fatal("warm phase did not exercise eviction")
	}
	return sys, d, st, drv
}

// measure runs the identical post-warm workload on a world: read every warm
// page back (verifying the pattern survived the fork), then overwrite half of
// them, forcing further paging traffic.
func measure(t *testing.T, sys *System, d *domain.Domain, st *vm.Stretch) {
	t.Helper()
	var verified bool
	d.Go("measure", func(th *domain.Thread) {
		buf := make([]byte, vm.PageSize)
		for pg := 0; pg < 32; pg++ {
			if err := th.ReadAt(st.PageBase(pg), buf); err != nil {
				t.Errorf("measure read page %d: %v", pg, err)
				return
			}
			for i := range buf {
				if buf[i] != warmPattern(pg, i) {
					t.Errorf("page %d byte %d = %d, want %d", pg, i, buf[i], warmPattern(pg, i))
					return
				}
			}
		}
		for pg := 0; pg < 16; pg++ {
			for i := range buf {
				buf[i] = warmPattern(pg, i) ^ 0xFF
			}
			if err := th.WriteAt(st.PageBase(pg), buf); err != nil {
				t.Errorf("measure write page %d: %v", pg, err)
				return
			}
		}
		verified = true
	})
	sys.Run(30 * time.Second)
	if !verified {
		t.Fatal("measure thread did not finish")
	}
}

// worldOutcome is everything the measure phase observed about one world.
type worldOutcome struct {
	now        int64
	delta      int64 // events dispatched during the measure phase
	domStats   domain.Stats
	drvStats   stretchdrv.PagerStats
	usdEventsN int
}

func outcome(sys *System, d *domain.Domain, drv *stretchdrv.Paged, base int64) worldOutcome {
	return worldOutcome{
		now:        int64(sys.Sim.Now()),
		delta:      sys.Sim.Dispatched() - base,
		domStats:   d.Stats(),
		drvStats:   drv.Stats,
		usdEventsN: len(sys.USDLog.Events()),
	}
}

// TestForkByteIdentity is the core fidelity test: a forked warm world's
// future must be byte-identical to the future the same world would have had
// without forking, and the parent must be unperturbed by the fork.
func TestForkByteIdentity(t *testing.T) {
	// Control: warm then measure, no fork anywhere.
	ctl, ctlD, ctlSt, ctlDrv := warmWorld(t)
	ctlBase := ctl.Sim.Dispatched()
	measure(t, ctl, ctlD, ctlSt)
	want := outcome(ctl, ctlD, ctlDrv, ctlBase)

	// Fork a second, identically warmed world; measure the fork AND the
	// parent.
	sys, d, st, drv := warmWorld(t)
	snap, err := sys.Fork()
	if err != nil {
		t.Fatal(err)
	}
	fd := snap.Sys.Domain(d.ID())
	fst := snap.Sys.SA.Lookup(st.ID())
	if fd == nil || fst == nil {
		t.Fatalf("fork lacks a twin: dom=%v stretch=%v", fd, fst)
	}
	fdrv, ok := fd.DriverFor(fst.ID()).(*stretchdrv.Paged)
	if !ok || fdrv == drv {
		t.Fatalf("fork lacks its own paged driver twin: %v", fd.DriverFor(fst.ID()))
	}
	if snap.Stats.FrameBytes == 0 || snap.Stats.SharedChunks == 0 {
		t.Fatalf("fork stats implausible: %+v", snap.Stats)
	}

	forkBase := snap.Sys.Sim.Dispatched()
	measure(t, snap.Sys, fd, fst)
	got := outcome(snap.Sys, fd, fdrv, forkBase)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("forked world diverged from cold world:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(snap.Sys.USDLog.Events(), ctl.USDLog.Events()) {
		t.Error("forked USD trace differs from cold trace")
	}

	parentBase := sys.Sim.Dispatched()
	measure(t, sys, d, st)
	got = outcome(sys, d, drv, parentBase)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parent world perturbed by fork:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(sys.USDLog.Events(), ctl.USDLog.Events()) {
		t.Error("parent USD trace differs from cold trace")
	}

	ctl.Shutdown()
	sys.Shutdown()
	snap.Sys.Shutdown()
}

// TestForkIsolation: after a fork, writes in the child must never be visible
// in the parent and vice versa, including data that round-trips through the
// copy-on-write disk.
func TestForkIsolation(t *testing.T) {
	sys, d, st, _ := warmWorld(t)
	snap, err := sys.Fork()
	if err != nil {
		t.Fatal(err)
	}
	fd, fst := snap.Sys.Domain(d.ID()), snap.Sys.SA.Lookup(st.ID())

	// Child overwrites every page (dirtying swap blocks via eviction), then
	// reads them back; the parent then re-reads the original pattern.
	var childOK bool
	fd.Go("scribble", func(th *domain.Thread) {
		buf := make([]byte, vm.PageSize)
		for pg := 0; pg < 32; pg++ {
			for i := range buf {
				buf[i] = byte((pg + i) % 253)
			}
			if err := th.WriteAt(fst.PageBase(pg), buf); err != nil {
				t.Errorf("child write page %d: %v", pg, err)
				return
			}
		}
		for pg := 0; pg < 32; pg++ {
			if err := th.ReadAt(fst.PageBase(pg), buf); err != nil {
				t.Errorf("child read page %d: %v", pg, err)
				return
			}
			for i := range buf {
				if buf[i] != byte((pg+i)%253) {
					t.Errorf("child page %d byte %d corrupted", pg, i)
					return
				}
			}
		}
		childOK = true
	})
	snap.Sys.Run(60 * time.Second)
	if !childOK {
		t.Fatal("child thread did not finish")
	}

	var parentOK bool
	d.Go("verify", func(th *domain.Thread) {
		buf := make([]byte, vm.PageSize)
		for pg := 0; pg < 32; pg++ {
			if err := th.ReadAt(st.PageBase(pg), buf); err != nil {
				t.Errorf("parent read page %d: %v", pg, err)
				return
			}
			for i := range buf {
				if buf[i] != warmPattern(pg, i) {
					t.Errorf("parent page %d byte %d = %d, want %d — child write leaked", pg, i, buf[i], warmPattern(pg, i))
					return
				}
			}
		}
		parentOK = true
	})
	sys.Run(60 * time.Second)
	if !parentOK {
		t.Fatal("parent thread did not finish")
	}

	sys.Shutdown()
	snap.Sys.Shutdown()
}

// TestForkPreconditions: forking with live workload threads or mid-simulation
// must fail loudly, and the world must stay usable afterwards.
func TestForkPreconditions(t *testing.T) {
	sys := smallSystem()
	d, _ := sys.NewDomain("app", cpuShare(), mem.Contract{Guaranteed: 4})
	st, _, err := sys.NewPagedStretch(d, 4*vm.PageSize, 8*vm.PageSize, diskShare())
	if err != nil {
		t.Fatal(err)
	}
	d.Go("spin", func(th *domain.Thread) {
		for i := 0; i < 1000; i++ {
			if err := th.Touch(st.Base(), vm.PageSize, vm.AccessWrite); err != nil {
				return
			}
		}
	})
	// The spin thread is still live: fork must refuse.
	if _, err := sys.Fork(); err == nil {
		t.Fatal("Fork succeeded with a live workload thread")
	}
	sys.Run(10 * time.Second)
	// Quiesced now: fork must succeed.
	snap, err := sys.Fork()
	if err != nil {
		t.Fatal(err)
	}
	snap.Sys.Shutdown()
	sys.Shutdown()
}

// TestForkRefusals: Fork refuses every world a pooled warm Fig. 7/8 world
// cannot be, and every fork point that is not quiesced, with an error
// naming the cause. Each case is refused repeatedly; a refusal builds
// nothing it could leak, so afterwards the parent's workload still runs
// and, once the parent is shut down, the goroutine count is back at its
// baseline. The stray timer is found only after the USD has been respawned
// in the half-built fork, so it pins the late-refusal shutdown too.
func TestForkRefusals(t *testing.T) {
	// A second disk client fits beside diskShare's 80%.
	smallDiskShare := atropos.QoS{P: ms(250), S: ms(25), L: ms(10)}
	for _, tc := range []struct {
		name      string
		want      string // the cause the error must name
		telemetry bool
		mut       func(t *testing.T, sys *System, d *domain.Domain)
	}{
		{name: "telemetry", want: "telemetry", telemetry: true},
		{name: "physical stretch", want: "physical", mut: func(t *testing.T, sys *System, d *domain.Domain) {
			if _, _, err := sys.NewPhysicalStretch(d, vm.PageSize); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "nailed stretch", want: "nailed", mut: func(t *testing.T, sys *System, d *domain.Domain) {
			d.Go("nail", func(th *domain.Thread) {
				if _, _, err := sys.NewNailedStretch(th, vm.PageSize); err != nil {
					t.Error(err)
				}
			})
			sys.Run(time.Second)
		}},
		{name: "mapped-file stretch", want: "mapped", mut: func(t *testing.T, sys *System, d *domain.Domain) {
			file, err := sys.SFS.CreateSwapFile("data", 4*vm.PageSize, smallDiskShare, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := sys.NewMappedFileStretch(d, file); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "clock replacement", want: "clock", mut: func(t *testing.T, sys *System, d *domain.Domain) {
			spec := PagerSpec{Kind: KindPaged, Size: 4 * vm.PageSize, SwapBytes: 8 * vm.PageSize, DiskQoS: smallDiskShare, Policy: stretchdrv.PolicyClock}
			if _, _, err := sys.NewStretch(d, spec); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "fault handler", want: "fault handler", mut: func(t *testing.T, sys *System, d *domain.Domain) {
			d.SetFaultHandler(vm.ProtectionFault, func(*domain.Thread, *vm.Fault) bool { return false })
		}},
		{name: "live thread", want: "still live", mut: func(t *testing.T, sys *System, d *domain.Domain) {
			d.Go("sleeper", func(th *domain.Thread) { th.Sleep(time.Second) })
		}},
		{name: "stray timer", want: "event accounting", mut: func(t *testing.T, sys *System, d *domain.Domain) {
			sys.Sim.After(time.Hour, func() {})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			cfg := DefaultConfig()
			cfg.MemoryFrames = 64
			cfg.Telemetry = tc.telemetry
			sys := New(cfg)
			d, err := sys.NewDomain("app", cpuShare(), mem.Contract{Guaranteed: 8})
			if err != nil {
				t.Fatal(err)
			}
			st, _, err := sys.NewPagedStretch(d, 32*vm.PageSize, 64*vm.PageSize, diskShare())
			if err != nil {
				t.Fatal(err)
			}
			if tc.mut != nil {
				tc.mut(t, sys, d)
			}
			for i := 0; i < 5; i++ {
				snap, err := sys.Fork()
				if err == nil {
					snap.Sys.Shutdown()
					t.Fatal("Fork succeeded")
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("Fork error %q does not name %q", err, tc.want)
				}
			}
			var done bool
			d.Go("work", func(th *domain.Thread) {
				if err := th.Touch(st.Base(), 32*vm.PageSize, vm.AccessWrite); err != nil {
					t.Errorf("parent workload after refusals: %v", err)
					return
				}
				done = true
			})
			sys.Run(30 * time.Second)
			if !done {
				t.Fatal("parent workload did not finish after refusals")
			}
			sys.Shutdown()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("goroutines = %d after refused forks, baseline %d: leak", n, before)
			}
		})
	}
}
