package core

import (
	"fmt"
	"testing"
	"time"

	"nemesis/internal/atropos"
	"nemesis/internal/domain"
	"nemesis/internal/mem"
	"nemesis/internal/netswap"
	"nemesis/internal/stretchdrv"
	"nemesis/internal/vm"
)

// censusWorld is one machine shaped like a cluster machine: telemetry on,
// and each domain a two-frame contract over an eight-page stretch that
// pages to a pool of six swap servers, with the thread that touches it.
type censusWorld struct {
	sys   *System
	pool  *netswap.Pool
	qos   atropos.QoS
	names []string
	next  int
}

const (
	censusPages   = 8
	censusServers = 6
)

// newCensusWorld builds a census world that already holds held domains,
// with room for more.
func newCensusWorld(tb testing.TB, held, more int) *censusWorld {
	tb.Helper()
	n := held + more
	cfg := DefaultConfig()
	cfg.Telemetry = true
	cfg.MemoryFrames = 2*n + 256
	sys := New(cfg)
	stretchBytes := int64(censusPages * vm.PageSize)
	ns := netswap.DefaultConfig()
	ns.Server.StoreBytes = int64(n)*stretchBytes/censusServers + 2*stretchBytes
	pool, err := netswap.NewPool(sys.Sim, sys.Obs, censusServers, ns)
	if err != nil {
		tb.Fatal(err)
	}
	w := &censusWorld{
		sys:   sys,
		pool:  pool,
		qos:   atropos.QoS{P: 100 * time.Millisecond, S: 90 * time.Millisecond / time.Duration(n), X: true},
		names: make([]string, n),
	}
	for i := range w.names {
		w.names[i] = fmt.Sprintf("d%d", i)
	}
	for range held {
		w.admit(tb)
	}
	return w
}

// admit admits the world's next domain the way a cluster machine does.
func (w *censusWorld) admit(tb testing.TB) {
	name := w.names[w.next]
	w.next++
	dom, err := w.sys.NewDomain(name, w.qos, mem.Contract{Guaranteed: 2})
	if err != nil {
		tb.Fatal(err)
	}
	st, err := dom.NewStretch(censusPages * vm.PageSize)
	if err != nil {
		tb.Fatal(err)
	}
	rb, err := w.pool.Place(name, name, censusPages*vm.PageSize)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := stretchdrv.NewPaged(dom, st, rb, stretchdrv.PagerOptions{}); err != nil {
		tb.Fatal(err)
	}
	base := st.Base()
	dom.Go("idle", func(t *domain.Thread) { t.Touch(base, vm.PageSize, vm.AccessWrite) })
}

func (w *censusWorld) close() {
	w.pool.Stop()
	w.sys.Shutdown()
}

// censusHeld is how many domains the census world holds before the
// measured admissions.
const censusHeld = 2000

// BenchmarkDomainAdmission prices what one domain costs: admitting one
// cluster-shaped domain (NewDomain, its stretch, Pool.Place, its paged
// driver and its thread) into a world that already holds thousands. Every
// 1,000 admissions it starts a fresh world, untimed.
func BenchmarkDomainAdmission(b *testing.B) {
	const batch = 1000
	b.ReportAllocs()
	var w *censusWorld
	for i := 0; i < b.N; i++ {
		if i%batch == 0 {
			b.StopTimer()
			if w != nil {
				w.close()
			}
			w = newCensusWorld(b, censusHeld, batch)
			b.StartTimer()
		}
		w.admit(b)
	}
	b.StopTimer()
	w.close()
}

// clusterDomainObjects bounds the heap objects admitting one
// cluster-shaped domain allocates: 52 measured, plus a slack of 2. With
// its bindings, fault handlers, rights and attempts in flight in maps and
// its condition variables allocated apart, a domain took 60. A per-domain
// map, copy or side object added later fails here.
const clusterDomainObjects = 52 + 2

func TestClusterDomainAdmissionAllocations(t *testing.T) {
	const runs = 300
	w := newCensusWorld(t, censusHeld, runs+1)
	defer w.close()
	got := testing.AllocsPerRun(runs, func() { w.admit(t) })
	if got > clusterDomainObjects {
		t.Fatalf("admitting a cluster domain allocated %.1f objects, want at most %d", got, clusterDomainObjects)
	}
	t.Logf("admitting a cluster domain allocated %.1f objects", got)
}
