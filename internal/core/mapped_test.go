package core

import (
	"bytes"
	"testing"
	"time"

	"nemesis/internal/domain"
	"nemesis/internal/mem"
	"nemesis/internal/stretchdrv"
	"nemesis/internal/vm"
)

// TestMappedFileStretch: write through the mapping, Sync, then map the same
// file into a second domain and verify the contents — mmap semantics end to
// end, including write-back ordering.
func TestMappedFileStretch(t *testing.T) {
	sys := smallSystem()
	writer, _ := sys.NewDomain("writer", cpuShare(), mem.Contract{Guaranteed: 4})
	file, err := sys.SFS.CreateSwapFile("data", 16*vm.PageSize, diskShare(), 1)
	if err != nil {
		t.Fatal(err)
	}
	st, drv, err := sys.NewMappedFileStretch(writer, file)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pages() != 16 {
		t.Fatalf("pages = %d", st.Pages())
	}
	pattern := func(pg, i int) byte { return byte((pg*31 + i) % 197) }
	var synced bool
	writer.Go("main", func(th *domain.Thread) {
		PreallocateFrames(th, 4)
		buf := make([]byte, vm.PageSize)
		for pg := 0; pg < 16; pg++ {
			for i := range buf {
				buf[i] = pattern(pg, i)
			}
			if err := th.WriteAt(st.PageBase(pg), buf); err != nil {
				t.Error(err)
				return
			}
		}
		if err := drv.Sync(th.Proc()); err != nil {
			t.Error(err)
			return
		}
		synced = true
	})
	sys.Run(30 * time.Second)
	if !synced {
		t.Fatal("writer did not finish")
	}
	// With 4 frames and 16 pages, eviction write-backs happened during the
	// writes; Sync flushed the resident remainder.
	if drv.Stats.PageOuts < 16 {
		t.Fatalf("write-backs = %d, want >= 16", drv.Stats.PageOuts)
	}
	if drv.Stats.Evictions == 0 {
		t.Fatal("no evictions with 4 frames over 16 pages")
	}

	// A second domain maps the same file and must see the writer's data —
	// the file is the unit of sharing.
	reader, _ := sys.NewDomain("reader", cpuShare(), mem.Contract{Guaranteed: 4})
	rst, rdrv, err := sys.NewMappedFileStretch(reader, file)
	if err != nil {
		t.Fatal(err)
	}
	var verified bool
	reader.Go("main", func(th *domain.Thread) {
		PreallocateFrames(th, 4)
		buf := make([]byte, vm.PageSize)
		for pg := 0; pg < 16; pg++ {
			if err := th.ReadAt(rst.PageBase(pg), buf); err != nil {
				t.Error(err)
				return
			}
			for i := range buf {
				if buf[i] != pattern(pg, i) {
					t.Errorf("page %d byte %d = %d, want %d", pg, i, buf[i], pattern(pg, i))
					return
				}
			}
		}
		verified = true
	})
	sys.Run(30 * time.Second)
	if !verified {
		t.Fatal("reader did not verify")
	}
	if rdrv.Stats.PageIns < 16 {
		t.Fatalf("reader file reads = %d", rdrv.Stats.PageIns)
	}
	sys.Shutdown()
	sys.RunUntilIdle(1 << 22)
}

// TestMappedCleanEvictionsSkipWriteBack: pages only read are evicted
// without disk writes.
func TestMappedCleanEvictionsSkipWriteBack(t *testing.T) {
	sys := smallSystem()
	d, _ := sys.NewDomain("reader", cpuShare(), mem.Contract{Guaranteed: 2})
	file, _ := sys.SFS.CreateSwapFile("ro", 8*vm.PageSize, diskShare(), 1)
	st, drv, err := sys.NewMappedFileStretch(d, file)
	if err != nil {
		t.Fatal(err)
	}
	d.Go("main", func(th *domain.Thread) {
		PreallocateFrames(th, 2)
		for pass := 0; pass < 3; pass++ {
			if err := th.Touch(st.Base(), 8*vm.PageSize, vm.AccessRead); err != nil {
				t.Error(err)
				return
			}
		}
	})
	sys.Run(30 * time.Second)
	if drv.Stats.PageOuts != 0 {
		t.Fatalf("clean pages wrote back %d times", drv.Stats.PageOuts)
	}
	if drv.Stats.Evictions < 16 {
		t.Fatalf("evictions = %d", drv.Stats.Evictions)
	}
	sys.Shutdown()
	sys.RunUntilIdle(1 << 22)
}

// TestMappedFileTooSmall: binding a stretch larger than the file fails.
func TestMappedFileTooSmall(t *testing.T) {
	sys := smallSystem()
	d, _ := sys.NewDomain("a", cpuShare(), mem.Contract{Guaranteed: 2})
	file, _ := sys.SFS.CreateSwapFile("tiny", 2*vm.PageSize, diskShare(), 1)
	st, err := d.NewStretch(4 * vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stretchdrv.NewMapped(d, st, file, stretchdrv.PagerOptions{}); err == nil {
		t.Fatal("oversized mapping accepted")
	}
}

// TestSharedTextStretch: a nailed stretch shared read-only into another
// domain: same bytes, no copies, no faults for the reader; writes are
// fatal.
func TestSharedTextStretch(t *testing.T) {
	sys := smallSystem()
	owner, _ := sys.NewDomain("owner", cpuShare(), mem.Contract{Guaranteed: 8})
	reader, _ := sys.NewDomain("reader", cpuShare(), mem.Contract{Guaranteed: 1})

	var st *vm.Stretch
	ready := false
	owner.Go("init", func(th *domain.Thread) {
		var err error
		st, _, err = sys.NewNailedStretch(th, 4*vm.PageSize)
		if err != nil {
			t.Error(err)
			return
		}
		text := bytes.Repeat([]byte{0xEE}, 4*vm.PageSize)
		if err := th.WriteAt(st.Base(), text); err != nil {
			t.Error(err)
			return
		}
		ready = true
	})
	sys.Run(5 * time.Second)
	if !ready {
		t.Fatal("owner init failed")
	}
	if err := sys.ShareStretch(owner, st, reader, vm.Read|vm.Execute); err != nil {
		t.Fatal(err)
	}

	framesBefore := reader.MemClient().Allocated()
	faultsBefore := reader.Stats().Faults
	var got byte
	reader.Go("read", func(th *domain.Thread) {
		b, err := th.ReadByteAt(st.Base() + 12345)
		if err != nil {
			t.Error(err)
			return
		}
		got = b
	})
	sys.Run(5 * time.Second)
	if got != 0xEE {
		t.Fatalf("shared read = %#x", got)
	}
	if reader.MemClient().Allocated() != framesBefore {
		t.Fatal("sharing consumed frames")
	}
	if reader.Stats().Faults != faultsBefore {
		t.Fatal("reader faulted on resident shared text")
	}

	// Writing shared text is a protection fault: fatal, no safety net.
	reader.Go("vandal", func(th *domain.Thread) {
		th.WriteByteAt(st.Base(), 0)
	})
	sys.Run(5 * time.Second)
	if !reader.Killed() {
		t.Fatal("writer to shared text survived")
	}
	if owner.Killed() {
		t.Fatal("owner killed by reader's fault")
	}
	sys.Shutdown()
	sys.RunUntilIdle(1 << 22)
}
