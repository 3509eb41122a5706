package netswap_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"nemesis/internal/netswap"
	"nemesis/internal/sim"
	"nemesis/internal/stretchdrv"
	"nemesis/internal/vm"
)

// page builds a page-sized buffer with a recognisable fill.
func page(fill byte) []byte {
	buf := make([]byte, vm.PageSize)
	for i := range buf {
		buf[i] = fill
	}
	return buf
}

// newFabric builds a fabric for tests, failing the test on error.
func newFabric(t *testing.T, s *sim.Simulator, cfg netswap.Config) *netswap.Fabric {
	t.Helper()
	fab, err := netswap.New(s, nil, cfg)
	if err != nil {
		t.Fatalf("netswap.New: %v", err)
	}
	return fab
}

// drive runs fn on a fresh simulated process, advancing the clock in bounded
// steps (the server's USD loop never idles, so draining the queue would spin
// forever), and fails the test if fn never finished.
func drive(t *testing.T, s *sim.Simulator, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	s.Spawn("test", func(p *sim.Proc) {
		fn(p)
		done = true
	})
	for i := 0; i < 1000 && !done; i++ {
		s.RunFor(time.Second)
	}
	if !done {
		t.Fatal("test process did not finish")
	}
}

func TestRemoteWriteReadRoundTrip(t *testing.T) {
	s := sim.New(1)
	fab := newFabric(t, s, netswap.DefaultConfig())
	defer fab.Stop()
	rb, err := fab.NewRemoteBacking("c1", "dom")
	if err != nil {
		t.Fatalf("NewRemoteBacking: %v", err)
	}

	const pages = 40 // > MaxBatch, so the batch splits and pipelines
	var batch []stretchdrv.DirtyPage
	for i := 0; i < pages; i++ {
		va := vm.VA(0x1000000000 + i*vm.PageSize)
		batch = append(batch, stretchdrv.DirtyPage{VA: va, Data: page(byte(i + 1))})
	}
	drive(t, s, func(p *sim.Proc) {
		if rb.HasCopy(batch[0].VA) {
			t.Error("HasCopy true before any write")
		}
		txns, err := rb.WritePages(p, batch, nil)
		if err != nil {
			t.Fatalf("WritePages: %v", err)
		}
		if txns < 1 {
			t.Fatalf("WritePages reported %d txns", txns)
		}
		for i, pg := range batch {
			if !rb.HasCopy(pg.VA) {
				t.Fatalf("page %d missing after write", i)
			}
			buf := make([]byte, vm.PageSize)
			if err := rb.ReadPage(p, pg.VA, buf, nil); err != nil {
				t.Fatalf("ReadPage %d: %v", i, err)
			}
			if !bytes.Equal(buf, pg.Data) {
				t.Fatalf("page %d corrupted on round trip", i)
			}
		}
	})
	if rb.Stats.RPCs == 0 || rb.Stats.PagesSent != pages || rb.Stats.PagesRead != pages {
		t.Fatalf("stats off: %+v", rb.Stats)
	}
	// Retransmitted RPCs (a timeout racing a slow disk) may be serviced
	// twice; the server must have written at least every page once.
	if got := fab.Server.Stats.PagesWritten; got < pages {
		t.Fatalf("server wrote %d pages, want >= %d", got, pages)
	}

	// Rewrite the first two RPCs' pages over their data: the first RPC's
	// pages all zero, so it sends the shared zero payload, and the second's
	// zero but for page 20, so it is copied. Every page must read back as
	// last written, so zeros that were skipped or stored at the wrong blok
	// show as the old data.
	maxBatch := netswap.DefaultRemoteOptions().MaxBatch
	rewrite := make([]stretchdrv.DirtyPage, 2*maxBatch)
	for i := range rewrite {
		rewrite[i] = stretchdrv.DirtyPage{VA: batch[i].VA, Data: page(0)}
	}
	rewrite[20].Data = page(0xEE)
	copy(batch, rewrite)
	drive(t, s, func(p *sim.Proc) {
		if _, err := rb.WritePages(p, rewrite, nil); err != nil {
			t.Fatalf("rewrite WritePages: %v", err)
		}
		for i, pg := range batch {
			buf := make([]byte, vm.PageSize)
			if err := rb.ReadPage(p, pg.VA, buf, nil); err != nil {
				t.Fatalf("ReadPage %d after rewrite: %v", i, err)
			}
			if !bytes.Equal(buf, pg.Data) {
				t.Fatalf("page %d reads %#x after rewrite, want %#x", i, buf[0], pg.Data[0])
			}
		}
	})
	if rb.Stats.PagesSent != pages+int64(len(rewrite)) {
		t.Fatalf("PagesSent = %d after rewrite, want %d", rb.Stats.PagesSent, pages+len(rewrite))
	}
}

func TestRemoteWindowBound(t *testing.T) {
	s := sim.New(1)
	cfg := netswap.DefaultConfig()
	cfg.Remote.Window = 2
	cfg.Remote.MaxBatch = 2
	fab := newFabric(t, s, cfg)
	defer fab.Stop()
	rb, err := fab.NewRemoteBacking("c1", "dom")
	if err != nil {
		t.Fatal(err)
	}
	var batch []stretchdrv.DirtyPage
	for i := 0; i < 32; i++ { // 16 RPCs through a window of 2
		va := vm.VA(0x1000000000 + i*vm.PageSize)
		batch = append(batch, stretchdrv.DirtyPage{VA: va, Data: page(byte(i))})
	}
	drive(t, s, func(p *sim.Proc) {
		if _, err := rb.WritePages(p, batch, nil); err != nil {
			t.Fatalf("WritePages: %v", err)
		}
	})
	if rb.Stats.MaxInflight > 2 {
		t.Fatalf("window of 2 reached %d in flight", rb.Stats.MaxInflight)
	}
	if rb.Stats.RPCs != 16 {
		t.Fatalf("RPCs = %d, want 16", rb.Stats.RPCs)
	}
}

func TestRemoteRetriesUnderLoss(t *testing.T) {
	s := sim.New(1)
	cfg := netswap.DefaultConfig()
	cfg.Link.DropProb = 0.3
	cfg.Remote.Timeout = 60 * time.Millisecond // > healthy RTT, so only drops retry
	cfg.Remote.Backoff = 5 * time.Millisecond
	fab := newFabric(t, s, cfg)
	defer fab.Stop()
	rb, err := fab.NewRemoteBacking("c1", "dom")
	if err != nil {
		t.Fatal(err)
	}
	const pages = 64
	drive(t, s, func(p *sim.Proc) {
		for i := 0; i < pages; i++ {
			va := vm.VA(0x1000000000 + i*vm.PageSize)
			if _, err := rb.WritePages(p, []stretchdrv.DirtyPage{{VA: va, Data: page(byte(i))}}, nil); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			buf := make([]byte, vm.PageSize)
			if err := rb.ReadPage(p, va, buf, nil); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			if buf[0] != byte(i) {
				t.Fatalf("read %d returned wrong page", i)
			}
		}
	})
	if rb.Stats.Retries == 0 {
		t.Fatal("30% loss produced no retries")
	}
	if rb.Stats.Failures != 0 {
		t.Fatalf("%d calls failed despite retry budget", rb.Stats.Failures)
	}
}

func TestRemoteTimeoutExhaustsBudget(t *testing.T) {
	s := sim.New(1)
	cfg := netswap.DefaultConfig()
	cfg.Remote.Timeout = 10 * time.Millisecond
	cfg.Remote.Backoff = time.Millisecond
	cfg.Remote.MaxRetries = 2
	fab := newFabric(t, s, cfg)
	defer fab.Stop()
	rb, err := fab.NewRemoteBacking("c1", "dom")
	if err != nil {
		t.Fatal(err)
	}
	fab.SetOutage(true)
	drive(t, s, func(p *sim.Proc) {
		buf := make([]byte, vm.PageSize)
		err := rb.ReadPage(p, vm.VA(0x1000000000), buf, nil)
		if !errors.Is(err, netswap.ErrRemoteTimeout) {
			t.Fatalf("outage read returned %v, want ErrRemoteTimeout", err)
		}
	})
	if rb.Stats.Failures != 1 {
		t.Fatalf("Failures = %d, want 1", rb.Stats.Failures)
	}
}

func TestRemoteErrNoCopy(t *testing.T) {
	s := sim.New(1)
	fab := newFabric(t, s, netswap.DefaultConfig())
	defer fab.Stop()
	rb, err := fab.NewRemoteBacking("c1", "dom")
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s, func(p *sim.Proc) {
		buf := make([]byte, vm.PageSize)
		err := rb.ReadPage(p, vm.VA(0x1000000000), buf, nil)
		if !errors.Is(err, netswap.ErrRemote) {
			t.Fatalf("read of unwritten page returned %v, want ErrRemote", err)
		}
	})
}

func TestRemoteClientsIsolated(t *testing.T) {
	s := sim.New(1)
	fab := newFabric(t, s, netswap.DefaultConfig())
	defer fab.Stop()
	a, err := fab.NewRemoteBacking("a", "doma")
	if err != nil {
		t.Fatal(err)
	}
	b, err := fab.NewRemoteBacking("b", "domb")
	if err != nil {
		t.Fatal(err)
	}
	va := vm.VA(0x1000000000)
	drive(t, s, func(p *sim.Proc) {
		if _, err := a.WritePages(p, []stretchdrv.DirtyPage{{VA: va, Data: page(0xAA)}}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := b.WritePages(p, []stretchdrv.DirtyPage{{VA: va, Data: page(0xBB)}}, nil); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, vm.PageSize)
		if err := a.ReadPage(p, va, buf, nil); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 0xAA {
			t.Fatalf("client a read %#x, want 0xAA: blok maps leaked across clients", buf[0])
		}
	})
}

func TestRemoteDeterministicUnderLoss(t *testing.T) {
	run := func() (netswap.RemoteStats, sim.Time) {
		s := sim.New(7)
		cfg := netswap.DefaultConfig()
		cfg.Link.DropProb = 0.2
		cfg.Link.DupProb = 0.05
		cfg.Remote.Timeout = 60 * time.Millisecond
		fab, err := netswap.New(s, nil, cfg)
		if err != nil {
			panic(err)
		}
		defer fab.Stop()
		rb, err := fab.NewRemoteBacking("c1", "dom")
		if err != nil {
			panic(err)
		}
		var end sim.Time
		s.Spawn("t", func(p *sim.Proc) {
			for i := 0; i < 32; i++ {
				va := vm.VA(0x1000000000 + i*vm.PageSize)
				if _, err := rb.WritePages(p, []stretchdrv.DirtyPage{{VA: va, Data: page(byte(i))}}, nil); err != nil {
					panic(fmt.Sprintf("write %d: %v", i, err))
				}
			}
			end = s.Now()
		})
		for i := 0; i < 1000 && end == 0; i++ {
			s.RunFor(time.Second)
		}
		return rb.Stats, end
	}
	s1, e1 := run()
	s2, e2 := run()
	if s1 != s2 || e1 != e2 {
		t.Fatalf("identical seeds diverged:\n%+v @ %v\n%+v @ %v", s1, e1, s2, e2)
	}
	if s1.Retries == 0 {
		t.Fatal("lossy run recorded no retries")
	}
}
