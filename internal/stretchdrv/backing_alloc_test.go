package stretchdrv

import (
	"testing"
	"time"

	"nemesis/internal/atropos"
	"nemesis/internal/disk"
	"nemesis/internal/sfs"
	"nemesis/internal/sim"
	"nemesis/internal/usd"
	"nemesis/internal/vm"
)

// batchWriter runs a cleaner process on its own simulated disk that writes
// one batch per round through a backing, so a test can price a round.
type batchWriter struct {
	s      *sim.Simulator
	file   *sfs.SwapFile
	wake   *sim.Cond
	rounds int
	err    error
}

func newBatchWriter(t *testing.T) *batchWriter {
	t.Helper()
	s := sim.New(1)
	g := disk.VP3221()
	u := usd.New(s, disk.New(s, g))
	u.SlackEnabled = true
	fs := sfs.New(u, usd.Extent{Start: 0, Count: g.TotalBlocks})
	file, err := fs.CreateSwapFile("swap", 64*vm.PageSize, atropos.QoS{P: 100 * time.Millisecond, S: 50 * time.Millisecond, X: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	return &batchWriter{s: s, file: file, wake: sim.NewCond(s)}
}

// start spawns the cleaner: each round it runs before, then writes batch.
func (w *batchWriter) start(b Backing, batch []DirtyPage, before func()) {
	w.s.Spawn("cleaner", func(p *sim.Proc) {
		for {
			w.wake.Wait(p)
			before()
			if _, err := b.WritePages(p, batch, nil); err != nil && w.err == nil {
				w.err = err
			}
			w.rounds++
		}
	})
	w.s.RunFor(time.Millisecond)
}

// round writes one batch and runs the simulator until it is on disk.
func (w *batchWriter) round() {
	want := w.rounds + 1
	w.wake.Signal()
	for w.rounds < want {
		w.s.RunFor(10 * time.Millisecond)
	}
}

// scattered is a batch of eight pages in reverse address order, every
// other page of a 16-page stretch at base, so it sorts and splits into
// several runs.
func scattered(base vm.VA) []DirtyPage {
	batch := make([]DirtyPage, 8)
	for i := range batch {
		data := make([]byte, vm.PageSize)
		data[0] = byte(i + 1)
		batch[i] = DirtyPage{VA: base + vm.VA(uint64(14-2*i)*vm.PageSize), Data: data}
	}
	return batch
}

// A steady-state cleaning batch allocates nothing: its disk order, the
// pages that still need bloks and the write buffer all live in the
// backing's pooled scratch. Each swap round first drops two of the batch's
// pages, so their bloks are allocated again and the first-clean path runs
// too.
func TestWritePagesSteadyStateAllocatesNothing(t *testing.T) {
	const base = vm.VA(0x100000)
	t.Run("swap", func(t *testing.T) {
		w := newBatchWriter(t)
		b := NewSwapBacking(w.file)
		batch := scattered(base)
		w.start(b, batch, func() {
			b.Drop(batch[1].VA)
			b.Drop(batch[6].VA)
		})
		w.round()
		if n := testing.AllocsPerRun(50, w.round); n != 0 {
			t.Fatalf("a steady-state batch allocated %.1f times", n)
		}
		if w.err != nil || w.rounds != 52 || !b.HasCopy(batch[1].VA) {
			t.Fatalf("%d rounds, err %v", w.rounds, w.err)
		}
	})
	t.Run("mapped", func(t *testing.T) {
		w := newBatchWriter(t)
		b := NewMappedBacking(w.file, base)
		w.start(b, scattered(base), func() {})
		w.round()
		if n := testing.AllocsPerRun(50, w.round); n != 0 {
			t.Fatalf("a steady-state batch allocated %.1f times", n)
		}
		if w.err != nil || w.rounds != 52 {
			t.Fatalf("%d rounds, err %v", w.rounds, w.err)
		}
	})
}
