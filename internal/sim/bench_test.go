package sim

import (
	"testing"
	"time"
)

func BenchmarkEventDispatch(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, func() {})
		s.Run(s.Now().Add(time.Microsecond))
	}
}

func BenchmarkProcContextSwitch(b *testing.B) {
	s := New(1)
	n := 0
	s.Spawn("switcher", func(p *Proc) {
		for n < b.N {
			p.Sleep(time.Microsecond)
			n++
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.RunUntilIdle(b.N + 10)
}

func BenchmarkCondSignalWait(b *testing.B) {
	s := New(1)
	c := NewCond(s)
	n := 0
	s.Spawn("waiter", func(p *Proc) {
		for n < b.N {
			c.Wait(p)
			n++
		}
	})
	s.Spawn("signaller", func(p *Proc) {
		for n < b.N {
			c.Signal()
			p.Sleep(time.Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.RunUntilIdle(4*b.N + 100)
}

func BenchmarkQueueSendRecv(b *testing.B) {
	s := New(1)
	q := NewQueue[int](s, 64)
	n := 0
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Send(p, i)
		}
		q.Close()
	})
	s.Spawn("consumer", func(p *Proc) {
		for {
			if _, ok := q.Recv(p); !ok {
				return
			}
			n++
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.RunUntilIdle(8*b.N + 100)
}

// BenchmarkSpawnShutdown prices a process's whole life outside the switch
// loop: spawn 100 processes that park in a long Sleep, run 1 ms, and
// release them all with Shutdown. The cluster and the serve warm pool's
// respawn pay this per process.
func BenchmarkSpawnShutdown(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(1)
		for j := 0; j < 100; j++ {
			s.Spawn("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
		}
		s.RunFor(time.Millisecond)
		s.Shutdown()
	}
}
