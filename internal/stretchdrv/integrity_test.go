package stretchdrv_test

import (
	"bytes"
	"testing"
	"time"

	"nemesis/internal/core"
	"nemesis/internal/domain"
	"nemesis/internal/mem"
	"nemesis/internal/netswap"
	"nemesis/internal/stretchdrv"
	"nemesis/internal/vm"
)

// integrityPages is the stretch size of the integrity test: thread A owns
// pages 0–11, thread B pages 12–23, and the domain has four frames.
const integrityPages = 24

// pattern is page pg's contents after its gen'th write: distinct for every
// (page, generation) pair, and never zero, so a page that reads back as
// another page, an older copy or a fresh zero page shows.
func pattern(pg, gen int) []byte { return fill(byte(1 + (pg*3+gen)%251)) }

// checkPageIntegrity runs a domain whose 24 pages outnumber its 4 frames,
// writing distinct bytes to every page with WriteAt and reading each back
// with ReadAt, through whatever backing build binds. The schedule drives
// both ways a cleaning batch's page views could be misused:
//
//   - A writes pages 0–11, then rewrites 6, 4, 2 and 0, which leaves them
//     resident and dirty, in that FIFO order, on bloks that are not
//     adjacent;
//   - A's Sync takes all four in one batch (ClusterSize 4), which a swap
//     file writes as four runs, lowest blok first;
//   - while those runs are on the disk, B writes fresh pages: its faults
//     evict A's pages, now clean, oldest first (6, then 4 and 2), and B
//     fills their frames. A backing that read a later run's views after
//     its first write blocked would store B's bytes as A's pages;
//   - page-ins reuse the engine's page buffers, so a frame view that
//     entered that free list would let a page-in overwrite a resident
//     page, which the read-back catches by reading each page again after
//     the next page-in;
//   - once every page has read back, B rewrites six of its pages with
//     zeros: 12 and 14 in one batch with data for 13 and 15, then 16–19
//     in a batch of zeros only. Each batch is synced, and reading every
//     page back evicts them first. A disk, backing or RPC payload that
//     skipped a zero write over stored data would read back the page's
//     older bytes. The batches are runs of B's consecutive pages: a remote
//     batch of four scattered pages takes the swap server longer to store
//     than slowRemote's timeout, so its retransmits never finish.
//
// Every page must read back its last write.
func checkPageIntegrity(t *testing.T, sys *core.System, build func(*domain.Domain) (*vm.Stretch, *stretchdrv.Engine)) {
	t.Helper()
	d, err := sys.NewDomain("app", cpuQ(), mem.Contract{Guaranteed: 4})
	if err != nil {
		t.Fatal(err)
	}
	st, eng := build(d)
	gen := make([]int, integrityPages)
	want := make([][]byte, integrityPages)
	write := func(th *domain.Thread, pg int, zero bool) bool {
		gen[pg]++
		if want[pg] = pattern(pg, gen[pg]); zero {
			want[pg] = make([]byte, vm.PageSize)
		}
		if err := th.WriteAt(st.PageBase(pg), want[pg]); err != nil {
			t.Errorf("write page %d: %v", pg, err)
			return false
		}
		return true
	}
	buf := make([]byte, vm.PageSize)
	read := func(th *domain.Thread, pg int) bool {
		if err := th.ReadAt(st.PageBase(pg), buf); err != nil {
			t.Errorf("read page %d: %v", pg, err)
			return false
		}
		if !bytes.Equal(buf, want[pg]) {
			t.Errorf("page %d read back %#x…, want %#x (write %d)", pg, buf[0], want[pg][0], gen[pg])
		}
		return true
	}
	// verify reads each page twice: once, then again after the next page
	// is paged in, while it is still resident.
	verify := func(th *domain.Thread, pages []int) bool {
		for i, pg := range pages {
			if !read(th, pg) || i > 0 && !read(th, pages[i-1]) {
				return false
			}
		}
		return true
	}
	span := func(lo, hi int) []int {
		var out []int
		for pg := lo; pg < hi; pg++ {
			out = append(out, pg)
		}
		return out
	}
	var synced, bDone, aDone, bVerified bool
	d.Go("A", func(th *domain.Thread) {
		if err := core.PreallocateFrames(th, 4); err != nil {
			t.Error(err)
			return
		}
		for _, pg := range append(span(0, 12), 6, 4, 2, 0) {
			if !write(th, pg, false) {
				return
			}
		}
		if err := eng.Sync(th.Proc()); err != nil {
			t.Errorf("sync: %v", err)
			return
		}
		synced = true
		for !bDone {
			th.Sleep(time.Millisecond)
		}
		aDone = verify(th, span(0, 12))
	})
	d.Go("B", func(th *domain.Thread) {
		for eng.Stats.Syncs == 0 {
			th.Sleep(100 * time.Microsecond)
		}
		for pg := 12; pg < integrityPages; pg++ {
			if !write(th, pg, false) {
				return
			}
		}
		for !synced {
			th.Sleep(time.Millisecond)
		}
		bDone = true
		for !aDone {
			th.Sleep(time.Millisecond)
		}
		if !verify(th, span(12, integrityPages)) {
			return
		}
		for _, batch := range [][]int{{12, 13, 14, 15}, {16, 17, 18, 19}} {
			for _, pg := range batch {
				if !write(th, pg, pg != 13 && pg != 15) {
					return
				}
			}
			if err := eng.Sync(th.Proc()); err != nil {
				t.Errorf("sync: %v", err)
				return
			}
		}
		bVerified = verify(th, span(0, integrityPages))
	})
	sys.Run(60 * time.Second)
	if !aDone || !bVerified {
		t.Fatalf("threads did not finish (A %v, B %v)", aDone, bVerified)
	}
	if eng.Stats.PageIns == 0 || eng.Stats.Evictions == 0 {
		t.Fatalf("no paging: %+v", eng.Stats)
	}
	sys.Shutdown()
	sys.RunUntilIdle(1 << 22)
}

func TestPageIntegritySwapBacking(t *testing.T) {
	sys := rig(256)
	checkPageIntegrity(t, sys, func(d *domain.Domain) (*vm.Stretch, *stretchdrv.Engine) {
		st, drv, err := sys.NewStretch(d, core.PagerSpec{
			Kind: core.KindPaged, Size: integrityPages * vm.PageSize, SwapBytes: 2 * integrityPages * vm.PageSize,
			DiskQoS: diskQ(), ClusterSize: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st, drv.(*stretchdrv.Paged).Engine
	})
}

func TestPageIntegrityMappedBacking(t *testing.T) {
	sys := rig(256)
	checkPageIntegrity(t, sys, func(d *domain.Domain) (*vm.Stretch, *stretchdrv.Engine) {
		file, err := sys.SFS.CreateSwapFile("data", integrityPages*vm.PageSize, diskQ(), 1)
		if err != nil {
			t.Fatal(err)
		}
		st, drv, err := sys.NewStretch(d, core.PagerSpec{Kind: core.KindMapped, File: file, ClusterSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		return st, drv.(*stretchdrv.Mapped).Engine
	})
}

func TestPageIntegrityRemoteBacking(t *testing.T) {
	// Each RPC attempt gets less time than the swap server, which stores
	// serially at disk speed, needs once a few requests queue, so calls
	// retransmit and replies arrive for attempts already given up on.
	ns := netswap.DefaultConfig()
	ns.Remote.Timeout = 15 * time.Millisecond
	ns.Remote.MaxRetries = -1
	ns.Remote.Backoff = time.Millisecond
	cfg := core.DefaultConfig()
	cfg.MemoryFrames = 256
	cfg.NetSwap = &ns
	sys := core.New(cfg)
	var rb *netswap.RemoteBacking
	checkPageIntegrity(t, sys, func(d *domain.Domain) (*vm.Stretch, *stretchdrv.Engine) {
		st, drv, err := sys.NewStretch(d, core.PagerSpec{
			Kind: core.KindPaged, Size: integrityPages * vm.PageSize, Backing: core.BackingRemote,
			ClusterSize: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		rb = drv.(*stretchdrv.Paged).Backing().(*netswap.RemoteBacking)
		return st, drv.(*stretchdrv.Paged).Engine
	})
	if rb.Stats.Retries == 0 || rb.Stats.LateReplies == 0 {
		t.Fatalf("no retransmits or late replies: %+v", rb.Stats)
	}
	t.Logf("remote: %+v", rb.Stats)
}

func TestPageIntegrityTieredBacking(t *testing.T) {
	sys := rig(256)
	checkPageIntegrity(t, sys, func(d *domain.Domain) (*vm.Stretch, *stretchdrv.Engine) {
		st, drv, err := sys.NewStretch(d, core.PagerSpec{
			Kind: core.KindPaged, Size: integrityPages * vm.PageSize, Backing: core.BackingTiered,
			SwapBytes: 8 * vm.PageSize, DiskQoS: diskQ(), ClusterSize: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st, drv.(*stretchdrv.Paged).Engine
	})
}
