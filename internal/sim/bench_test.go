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

// BenchmarkEventDispatchNow prices an event scheduled for the instant it
// is scheduled at, as CPU grants, Cond.Signal wakes and the CPU scheduler's
// schedule callbacks are: a chain of callbacks, each scheduling the next at
// now, beside 256 pending future timers, so that a same-instant event that
// went through the heap would sift past them.
func BenchmarkEventDispatchNow(b *testing.B) {
	s := New(1)
	for i := 1; i <= 256; i++ {
		s.After(time.Duration(i)*time.Hour, func() {})
	}
	n := 0
	var link func()
	link = func() {
		if n++; n < b.N {
			s.At(s.Now(), link)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.At(s.Now(), link)
	s.Run(s.Now())
}

// BenchmarkProcContextSwitch prices a lone process sleeping: every wakeup
// is its own next event, so after the first dispatch it resumes inline
// inside its park, with no coroutine switch. BenchmarkProcSwitchPair prices
// a real switch.
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

// BenchmarkProcSwitchPair prices a coroutine switch: two processes sleep
// with their wakeups interleaved, so every wakeup belongs to the process
// that is not running, and each costs a yield to the dispatching goroutine
// and a switch into the other process.
func BenchmarkProcSwitchPair(b *testing.B) {
	s := New(1)
	n := 0
	for i := 1; i <= 2; i++ {
		start := Time(time.Duration(i) * time.Microsecond)
		s.Spawn("switcher", func(p *Proc) {
			p.SleepUntil(start)
			for n < b.N {
				p.Sleep(2 * time.Microsecond)
				n++
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.RunUntilIdle(b.N + 10)
}

func BenchmarkCondSignalWait(b *testing.B) {
	s := New(1)
	c := new(Cond)
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
	q := NewQueue[int](64)
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

// BenchmarkProcHandoffChain prices one page fault's round trip in Fig. 7's
// shape: the faulting thread wakes its MMEntry worker and waits, the
// worker wakes the USD and waits, and the USD, after a simulated transfer,
// wakes the worker, which wakes the thread. Every wakeup but the
// transfer's crosses processes: a parking process dispatches the next one
// down the chain itself, and yields back up it at an ancestor's wakeup.
func BenchmarkProcHandoffChain(b *testing.B) {
	s := New(1)
	var fault, req, done, resolved Cond
	n := 0
	s.Spawn("worker", func(p *Proc) {
		for {
			fault.Wait(p)
			req.Signal()
			done.Wait(p)
			resolved.Signal()
		}
	})
	s.Spawn("usd", func(p *Proc) {
		for {
			req.Wait(p)
			p.Sleep(time.Microsecond)
			done.Signal()
		}
	})
	s.Spawn("thread", func(p *Proc) {
		for n < b.N {
			fault.Signal()
			resolved.Wait(p)
			n++
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.RunUntilIdle(6*b.N + 100)
	b.StopTimer()
	if n != b.N {
		b.Fatalf("%d round trips, want %d", n, b.N)
	}
	s.Shutdown()
}
