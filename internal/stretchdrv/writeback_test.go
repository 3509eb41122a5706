package stretchdrv_test

import (
	"bytes"
	"testing"
	"time"

	"nemesis/internal/core"
	"nemesis/internal/domain"
	"nemesis/internal/mem"
	"nemesis/internal/stretchdrv"
	"nemesis/internal/vm"
)

// fill returns a page of b.
func fill(b byte) []byte { return bytes.Repeat([]byte{b}, vm.PageSize) }

// writeDuringWriteBack runs the lost-update scenario on a paged stretch with
// two guaranteed frames: thread A dirties pages with 0xAA and calls start,
// which issues a write-back covering page racer; thread B waits until
// started reports that write-back under way, then writes 0xBB to page racer
// while the disk write blocks. A then forces page racer out by touching
// pages after it, and reads it back. It returns the byte read and the
// driver's stats.
func writeDuringWriteBack(t *testing.T, cluster, dirty, racer int,
	start func(th *domain.Thread, st *vm.Stretch, drv *stretchdrv.Paged) error,
	started func(drv *stretchdrv.Paged) bool) (byte, stretchdrv.PagerStats) {
	t.Helper()
	sys := rig(256)
	d, _ := sys.NewDomain("app", cpuQ(), mem.Contract{Guaranteed: 2})
	st, drvI, err := sys.NewStretch(d, core.PagerSpec{
		Kind: core.KindPaged, Size: 8 * vm.PageSize, SwapBytes: 32 * vm.PageSize,
		DiskQoS: diskQ(), ClusterSize: cluster,
	})
	if err != nil {
		t.Fatal(err)
	}
	drv := drvI.(*stretchdrv.Paged)
	var got byte
	wrote, done := false, false
	d.Go("A", func(th *domain.Thread) {
		if err := core.PreallocateFrames(th, 2); err != nil {
			t.Error(err)
			return
		}
		for pg := 0; pg < dirty; pg++ {
			if err := th.WriteAt(st.PageBase(pg), fill(0xAA)); err != nil {
				t.Error(err)
				return
			}
		}
		if err := start(th, st, drv); err != nil {
			t.Error(err)
			return
		}
		for !wrote {
			th.Sleep(time.Millisecond)
		}
		// Two more pages through two frames: FIFO evicts page racer.
		for pg := dirty + 1; pg <= dirty+2; pg++ {
			if err := th.Touch(st.PageBase(pg), vm.PageSize, vm.AccessRead); err != nil {
				t.Error(err)
				return
			}
		}
		b, err := th.ReadByteAt(st.PageBase(racer))
		if err != nil {
			t.Error(err)
			return
		}
		got, done = b, true
	})
	d.Go("B", func(th *domain.Thread) {
		for !started(drv) {
			th.Sleep(100 * time.Microsecond)
		}
		if err := th.WriteAt(st.PageBase(racer), fill(0xBB)); err != nil {
			t.Error(err)
			return
		}
		wrote = true
	})
	sys.Run(20 * time.Second)
	if !done {
		t.Fatal("thread A did not finish")
	}
	sys.Shutdown()
	sys.RunUntilIdle(1 << 22)
	return got, drv.Stats
}

// TestWriteDuringSyncIsNotLost: a write that lands while Sync's write-back
// of the page blocks must survive. Sync marks the page clean as it takes
// the page's contents, so the write dirties it again; marking it clean after
// the write returned would turn the newer bytes into a clean victim, and
// the read would return the synced 0xAA.
func TestWriteDuringSyncIsNotLost(t *testing.T) {
	got, s := writeDuringWriteBack(t, 1, 1, 0,
		func(th *domain.Thread, _ *vm.Stretch, drv *stretchdrv.Paged) error { return drv.Sync(th.Proc()) },
		func(drv *stretchdrv.Paged) bool { return drv.Stats.Syncs > 0 })
	if got != 0xBB {
		t.Fatalf("page 0 read back %#x after a write during Sync, want 0xbb (clean victims %d, dirty %d)",
			got, s.CleanVictims, s.DirtyVictims)
	}
}

// TestWriteDuringClusteredEvictionIsNotLost is the same race on the
// clustered eviction path: evicting page 0 also cleans dirty page 1, and a
// write to page 1 while that batch is on the disk must keep page 1 dirty.
func TestWriteDuringClusteredEvictionIsNotLost(t *testing.T) {
	got, s := writeDuringWriteBack(t, 2, 2, 1,
		func(th *domain.Thread, st *vm.Stretch, _ *stretchdrv.Paged) error {
			return th.Touch(st.PageBase(2), vm.PageSize, vm.AccessRead)
		},
		func(drv *stretchdrv.Paged) bool { return drv.Stats.DirtyVictims > 0 })
	if got != 0xBB {
		t.Fatalf("page 1 read back %#x after a write during its clustered write-back, want 0xbb (clean victims %d, dirty %d)",
			got, s.CleanVictims, s.DirtyVictims)
	}
}
