package netswap_test

import (
	"errors"
	"testing"
	"time"

	"nemesis/internal/atropos"
	"nemesis/internal/disk"
	"nemesis/internal/netswap"
	"nemesis/internal/sfs"
	"nemesis/internal/sim"
	"nemesis/internal/stretchdrv"
	"nemesis/internal/usd"
	"nemesis/internal/vm"
)

// tieredRig is a fabric + local swap tier + tiered backing on one simulator,
// built without the full core.System so tests can poke the tiers directly.
type tieredRig struct {
	s     *sim.Simulator
	fab   *netswap.Fabric
	local *stretchdrv.SwapBacking
	tb    *netswap.TieredBacking
	stop  func()
}

// newLocalTier builds a SwapBacking of the given page capacity on its own
// disk + USD machine (the client machine's local swap device). The returned
// stop function halts that USD so idle-drain runs terminate.
func newLocalTier(t *testing.T, s *sim.Simulator, pages int64) (*stretchdrv.SwapBacking, func()) {
	t.Helper()
	d := disk.New(s, disk.VP3221())
	u := usd.New(s, d)
	u.SlackEnabled = true
	fs := sfs.New(u, usd.Extent{Start: 0, Count: d.Geom.TotalBlocks})
	q := atropos.QoS{P: 100 * time.Millisecond, S: 90 * time.Millisecond, X: true, L: 10 * time.Millisecond}
	file, err := fs.CreateSwapFile("local-tier", pages*vm.PageSize, q, 1)
	if err != nil {
		t.Fatalf("local tier: %v", err)
	}
	return stretchdrv.NewSwapBacking(file), u.Stop
}

func newTieredRig(t *testing.T, cfg netswap.Config, localPages int64, topt netswap.TieredOptions) *tieredRig {
	t.Helper()
	s := sim.New(1)
	fab := newFabric(t, s, cfg)
	local, stopLocal := newLocalTier(t, s, localPages)
	rb, err := fab.NewRemoteBacking("c1", "dom")
	if err != nil {
		t.Fatal(err)
	}
	tb := netswap.NewTieredBacking(s, nil, local, rb, "dom", topt)
	return &tieredRig{s: s, fab: fab, local: local, tb: tb, stop: func() {
		stopLocal()
		fab.Stop()
	}}
}

func TestTieredDemoteOnCleanPromoteOnFault(t *testing.T) {
	rig := newTieredRig(t, netswap.DefaultConfig(), 64, netswap.TieredOptions{})
	defer rig.stop()
	va := vm.VA(0x1000000000)
	drive(t, rig.s, func(p *sim.Proc) {
		// Clean a page: healthy path demotes it to the remote tier while the
		// local tier keeps a cache copy.
		if _, err := rig.tb.WritePages(p, []stretchdrv.DirtyPage{{VA: va, Data: page(0x5A)}}, nil); err != nil {
			t.Fatalf("WritePages: %v", err)
		}
		if !rig.local.HasCopy(va) {
			t.Fatal("demoted page lost its local cache copy")
		}
		if !rig.tb.Remote().HasCopy(va) {
			t.Fatal("demoted page missing from the remote tier")
		}
		// Fault it back: a local hit, no network.
		buf := make([]byte, vm.PageSize)
		if err := rig.tb.ReadPage(p, va, buf, nil); err != nil {
			t.Fatalf("ReadPage: %v", err)
		}
		if buf[0] != 0x5A {
			t.Fatalf("round trip returned %#x", buf[0])
		}
		// Discard the local cache copy (what a full tier does): the next
		// fault reads remotely and promotes the page back into the tier.
		rig.local.Drop(va)
		if err := rig.tb.ReadPage(p, va, buf, nil); err != nil {
			t.Fatalf("remote ReadPage: %v", err)
		}
		if buf[0] != 0x5A {
			t.Fatalf("remote round trip returned %#x", buf[0])
		}
		if !rig.local.HasCopy(va) {
			t.Fatal("remote read did not promote the page locally")
		}
		// Re-fault: a local hit again.
		if err := rig.tb.ReadPage(p, va, buf, nil); err != nil {
			t.Fatalf("local re-read: %v", err)
		}
	})
	st := rig.tb.Stats
	if st.Demotions != 1 || st.RemoteReads != 1 || st.Promotions != 1 || st.LocalHits != 2 {
		t.Fatalf("stats off: %+v", st)
	}
}

func TestTieredDegradesAndRecovers(t *testing.T) {
	cfg := netswap.DefaultConfig()
	cfg.Remote.Timeout = 60 * time.Millisecond // > healthy RTT; outage fails in ~120 ms
	cfg.Remote.Backoff = time.Millisecond
	cfg.Remote.MaxRetries = 1
	topt := netswap.TieredOptions{
		Deadline:   100 * time.Millisecond, // healthy ops (~12-40 ms) stay inside
		MissBudget: 2,
		Cooldown:   500 * time.Millisecond,
	}
	rig := newTieredRig(t, cfg, 64, topt)
	defer rig.stop()
	drive(t, rig.s, func(p *sim.Proc) {
		write := func(i int) error {
			va := vm.VA(0x1000000000 + i*vm.PageSize)
			_, err := rig.tb.WritePages(p, []stretchdrv.DirtyPage{{VA: va, Data: page(byte(i))}}, nil)
			return err
		}
		if err := write(0); err != nil {
			t.Fatalf("healthy write: %v", err)
		}
		if rig.tb.Degraded() {
			t.Fatal("degraded after a healthy write")
		}

		// Outage: writes keep succeeding by falling over to the local
		// tier, and the backing trips into degraded mode.
		rig.fab.SetOutage(true)
		for i := 1; i <= 4; i++ {
			if err := write(i); err != nil {
				t.Fatalf("outage write %d: %v", i, err)
			}
		}
		if !rig.tb.Degraded() {
			t.Fatal("outage did not trip degradation")
		}
		if rig.tb.Stats.DegradedEntries == 0 || rig.tb.Stats.LocalFallbacks == 0 {
			t.Fatalf("stats off: %+v", rig.tb.Stats)
		}
		// Degraded pages must read back from the local tier during the
		// outage.
		buf := make([]byte, vm.PageSize)
		if err := rig.tb.ReadPage(p, vm.VA(0x1000000000+2*vm.PageSize), buf, nil); err != nil {
			t.Fatalf("degraded read: %v", err)
		}
		if buf[0] != 2 {
			t.Fatalf("degraded read returned %#x", buf[0])
		}

		// Heal the link, wait out the cooldown: the next clean probes the
		// remote again and demotes normally.
		rig.fab.SetOutage(false)
		p.Sleep(time.Second)
		if rig.tb.Degraded() {
			t.Fatal("still degraded after cooldown")
		}
		if err := write(9); err != nil {
			t.Fatalf("recovered write: %v", err)
		}
		if !rig.tb.Remote().HasCopy(vm.VA(0x1000000000 + 9*vm.PageSize)) {
			t.Fatal("recovered write did not reach the remote tier")
		}
	})
}

func TestTieredRemoteOnlyReadRetriesThroughOutage(t *testing.T) {
	cfg := netswap.DefaultConfig()
	cfg.Remote.Timeout = 20 * time.Millisecond
	cfg.Remote.MaxRetries = 1
	topt := netswap.TieredOptions{RetryEvery: 20 * time.Millisecond}
	rig := newTieredRig(t, cfg, 64, topt)
	defer rig.stop()
	va := vm.VA(0x1000000000)
	drive(t, rig.s, func(p *sim.Proc) {
		if _, err := rig.tb.WritePages(p, []stretchdrv.DirtyPage{{VA: va, Data: page(0x77)}}, nil); err != nil {
			t.Fatal(err)
		}
		// Discard the local cache copy so the sole copy is remote, then take
		// the link down and read: the faulting process must retry (stalling
		// only itself) until the link heals.
		rig.local.Drop(va)
		rig.fab.SetOutage(true)
		rig.s.After(300*time.Millisecond, func() { rig.fab.SetOutage(false) })
		start := rig.s.Now()
		buf := make([]byte, vm.PageSize)
		if err := rig.tb.ReadPage(p, va, buf, nil); err != nil {
			t.Fatalf("read through outage: %v", err)
		}
		if buf[0] != 0x77 {
			t.Fatalf("read returned %#x", buf[0])
		}
		if waited := rig.s.Now().Sub(start); waited < 300*time.Millisecond {
			t.Fatalf("read finished in %v, before the outage ended", waited)
		}
	})
	if rig.tb.Stats.ReadRetryWaits == 0 {
		t.Fatal("no retry waits recorded")
	}
}

func TestTieredDefinitiveRemoteError(t *testing.T) {
	rig := newTieredRig(t, netswap.DefaultConfig(), 64, netswap.TieredOptions{})
	defer rig.stop()
	drive(t, rig.s, func(p *sim.Proc) {
		buf := make([]byte, vm.PageSize)
		err := rig.tb.ReadPage(p, vm.VA(0x1000000000), buf, nil)
		if !errors.Is(err, netswap.ErrRemote) {
			t.Fatalf("read of nonexistent page returned %v, want ErrRemote", err)
		}
	})
}
