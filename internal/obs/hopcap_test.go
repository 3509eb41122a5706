package obs_test

import (
	"testing"
	"time"

	"nemesis/internal/atropos"
	"nemesis/internal/core"
	"nemesis/internal/domain"
	"nemesis/internal/mem"
	"nemesis/internal/netswap"
	"nemesis/internal/obs"
	"nemesis/internal/stretchdrv"
	"nemesis/internal/vm"
)

// TestRemoteWorkerSpanFitsHopCap drives the cluster scenario's remote
// worker fault: an idle domain with two guaranteed frames touches three
// pages of a remote-paged stretch, so its third touch evicts a page over
// the network. That fault's span records 10 hops, the most a cluster span
// does, and must exactly fill the capacity a new span starts with: no
// regrowth, and no slot that no cluster span uses.
func TestRemoteWorkerSpanFitsHopCap(t *testing.T) {
	const frames, pages = 2, 8
	cfg := core.DefaultConfig()
	cfg.Telemetry = true
	cfg.MemoryFrames = frames + 256
	sys := core.New(cfg)
	defer sys.Shutdown()
	ns := netswap.DefaultConfig()
	ns.Remote.Timeout = 2 * time.Second
	ns.Remote.MaxRetries = -1
	pool, err := netswap.NewPool(sys.Sim, sys.Obs, 1, ns)
	if err != nil {
		t.Fatal(err)
	}
	dom, err := sys.NewDomain("d0", atropos.QoS{P: 100 * time.Millisecond, S: 10 * time.Millisecond, X: true},
		mem.Contract{Guaranteed: frames})
	if err != nil {
		t.Fatal(err)
	}
	st, err := dom.NewStretch(pages * vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := pool.Place("d0", "d0", pages*vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stretchdrv.NewPaged(dom, st, rb, stretchdrv.PagerOptions{}); err != nil {
		t.Fatal(err)
	}
	dom.Go("idle", func(th *domain.Thread) {
		if err := core.PreallocateFrames(th, frames); err != nil {
			t.Error(err)
			return
		}
		for p := 0; p <= frames; p++ {
			if err := th.Touch(st.Base()+vm.VA(p*vm.PageSize), vm.PageSize, vm.AccessWrite); err != nil {
				t.Error(err)
				return
			}
		}
	})
	sys.Run(time.Second)
	pool.Stop()

	worker := 0
	for _, sp := range sys.Obs.Spans() {
		if sp.Outcome != "worker" {
			continue
		}
		worker++
		if n := len(sp.Hops()); n != 10 || obs.HopCap(sp) != n || obs.SpanHopCap != n {
			t.Errorf("worker span: %d hops in a slice of capacity %d, want 10 filling the initial %d: %+v",
				n, obs.HopCap(sp), obs.SpanHopCap, sp.Hops())
		}
	}
	if worker != 1 {
		t.Fatalf("%d worker fault spans, want 1 (the eviction over the network)", worker)
	}
}
