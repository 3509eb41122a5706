package usd

import (
	"testing"
	"time"

	"nemesis/internal/atropos"
	"nemesis/internal/disk"
	"nemesis/internal/sim"
)

// BenchmarkUSDTransaction prices one USD transaction on the host: a
// 16-block read submitted on a client's channel, picked by the Atropos
// core, serviced by the disk model and completed back to the waiting
// process. The client's slice covers most of each period and slack is on,
// so the loop measures the transaction path, not waits for a new period.
func BenchmarkUSDTransaction(b *testing.B) {
	s, u := newUSD()
	u.SlackEnabled = true
	ch, err := u.Open("a", atropos.QoS{P: ms(250), S: ms(200), X: true, L: ms(10)}, 1)
	if err != nil {
		b.Fatal(err)
	}
	u.Grant("a", wholeDisk(u))
	var runErr error
	done := false
	b.ReportAllocs()
	b.ResetTimer()
	s.Spawn("app", func(p *sim.Proc) {
		defer func() { done = true }()
		for i := 0; i < b.N; i++ {
			if _, err := ch.Do(p, &Request{Op: disk.Read, Block: int64(4096 + 16*(i%64)), Count: 16}); err != nil {
				runErr = err
				return
			}
		}
	})
	for !done {
		s.RunFor(time.Second)
	}
	b.StopTimer()
	u.Stop()
	s.RunUntilIdle(100000)
	if runErr != nil {
		b.Fatal(runErr)
	}
	if st, _ := u.Stats("a"); st.Txns != int64(b.N) {
		b.Fatalf("%d transactions for %d requests", st.Txns, b.N)
	}
}
