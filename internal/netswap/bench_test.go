package netswap_test

import (
	"testing"
	"time"

	"nemesis/internal/netswap"
	"nemesis/internal/sim"
	"nemesis/internal/stretchdrv"
	"nemesis/internal/vm"
)

// BenchmarkNetswapRoundTrip prices one remote page round trip on the host:
// a one-page write RPC across the default lossless link, stored by the swap
// server through its own USD and disk, then the read RPC that fetches the
// page back.
func BenchmarkNetswapRoundTrip(b *testing.B) {
	s := sim.New(1)
	fab, err := netswap.New(s, nil, netswap.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer fab.Stop()
	rb, err := fab.NewRemoteBacking("c1", "dom")
	if err != nil {
		b.Fatal(err)
	}
	data, buf := page(0x5a), make([]byte, vm.PageSize)
	var runErr error
	done := false
	b.ReportAllocs()
	b.ResetTimer()
	s.Spawn("bench", func(p *sim.Proc) {
		defer func() { done = true }()
		for i := 0; i < b.N; i++ {
			va := vm.VA(0x1000000000 + (i%64)*vm.PageSize)
			if _, err := rb.WritePages(p, []stretchdrv.DirtyPage{{VA: va, Data: data}}, nil); err != nil {
				runErr = err
				return
			}
			if err := rb.ReadPage(p, va, buf, nil); err != nil {
				runErr = err
				return
			}
		}
	})
	for !done {
		s.RunFor(time.Second)
	}
	b.StopTimer()
	if runErr != nil {
		b.Fatal(runErr)
	}
	if rb.Stats.PagesSent != int64(b.N) || rb.Stats.PagesRead != int64(b.N) {
		b.Fatalf("stats %+v for %d round trips", rb.Stats, b.N)
	}
}
