package sim

import (
	"slices"
	"testing"
	"time"
)

func TestCondSignalFIFO(t *testing.T) {
	s := New(1)
	c := new(Cond)
	var order []string
	for _, name := range []string{"first", "second", "third"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			c.Wait(p)
			order = append(order, name)
		})
	}
	s.At(Time(time.Millisecond), func() {
		c.Signal()
		c.Signal()
		c.Signal()
	})
	s.RunUntilIdle(100)
	want := []string{"first", "second", "third"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestCondSignalNoWaiters(t *testing.T) {
	var c Cond
	if c.Signal() {
		t.Fatal("Signal with no waiters reported true")
	}
}

func TestCondBroadcast(t *testing.T) {
	s := New(1)
	c := new(Cond)
	woken := 0
	for i := 0; i < 5; i++ {
		s.Spawn("w", func(p *Proc) {
			c.Wait(p)
			woken++
		})
	}
	var n int
	s.At(Time(time.Millisecond), func() { n = c.Broadcast() })
	s.RunUntilIdle(100)
	if n != 5 || woken != 5 {
		t.Fatalf("broadcast woke n=%d, ran=%d", n, woken)
	}
}

func TestCondWaitTimeout(t *testing.T) {
	s := New(1)
	c := new(Cond)
	var signalled bool
	var at Time
	s.Spawn("w", func(p *Proc) {
		signalled = c.WaitTimeout(p, 5*time.Millisecond)
		at = p.Now()
	})
	s.RunUntilIdle(100)
	if signalled {
		t.Fatal("expected timeout")
	}
	if at != Time(5*time.Millisecond) {
		t.Fatalf("timed out at %v", at)
	}
}

func TestCondWaitTimeoutSignalledFirst(t *testing.T) {
	s := New(1)
	c := new(Cond)
	var signalled bool
	s.Spawn("w", func(p *Proc) {
		signalled = c.WaitTimeout(p, 5*time.Millisecond)
	})
	s.At(Time(time.Millisecond), func() { c.Signal() })
	s.RunUntilIdle(100)
	if !signalled {
		t.Fatal("expected signal before timeout")
	}
}

func TestCondTimedOutWaiterNotCounted(t *testing.T) {
	s := New(1)
	c := new(Cond)
	s.Spawn("w", func(p *Proc) {
		c.WaitTimeout(p, time.Millisecond)
		p.Sleep(time.Hour) // stays alive, but no longer waiting on c
	})
	s.Run(Time(10 * time.Millisecond))
	if c.Waiting() != 0 {
		t.Fatalf("Waiting = %d after timeout", c.Waiting())
	}
	// Signalling now must not wake the sleeper early.
	if c.Signal() {
		t.Fatal("Signal woke a stale waiter")
	}
}

func TestCondSignalSkipsKilled(t *testing.T) {
	s := New(1)
	c := new(Cond)
	var ran []string
	a := s.Spawn("a", func(p *Proc) { c.Wait(p); ran = append(ran, "a") })
	s.Spawn("b", func(p *Proc) { c.Wait(p); ran = append(ran, "b") })
	s.At(Time(time.Millisecond), func() { a.Kill() })
	s.At(Time(2*time.Millisecond), func() { c.Signal() })
	s.RunUntilIdle(100)
	if len(ran) != 1 || ran[0] != "b" {
		t.Fatalf("ran = %v, want [b]", ran)
	}
}

func TestCondWaiting(t *testing.T) {
	s := New(1)
	c := new(Cond)
	for i := 0; i < 3; i++ {
		s.Spawn("w", func(p *Proc) { c.Wait(p) })
	}
	s.Run(Time(time.Millisecond))
	if c.Waiting() != 3 {
		t.Fatalf("Waiting = %d, want 3", c.Waiting())
	}
	c.Broadcast()
	s.RunUntilIdle(100)
}

// condOwner embeds its condition variable by value, as the simulator's
// users do: the zero Cond needs no constructor and no simulator.
type condOwner struct {
	woken int
	c     Cond
}

// A zero-value Cond embedded in a struct works through the whole API: Wait
// and Signal in FIFO order, WaitTimeout both ways, Waiting counting only
// live waiters, and Signal and Broadcast skipping waiters that timed out
// or were killed.
func TestZeroCondEmbedded(t *testing.T) {
	s := New(1)
	o := &condOwner{}
	var order []string
	waiter := func(name string) func(*Proc) {
		return func(p *Proc) {
			o.c.Wait(p)
			o.woken++
			order = append(order, name)
		}
	}
	s.Spawn("a", waiter("a"))
	killed := s.Spawn("killed", waiter("killed"))
	var timedOut, signalled bool
	s.Spawn("timeout", func(p *Proc) {
		timedOut = !o.c.WaitTimeout(p, time.Millisecond)
	})
	s.Spawn("b", waiter("b"))
	s.Spawn("c", waiter("c"))
	s.Spawn("d", waiter("d"))
	s.Run(Time(time.Millisecond / 2))
	if n := o.c.Waiting(); n != 6 {
		t.Fatalf("Waiting = %d, want 6", n)
	}
	killed.Kill()
	s.Run(Time(2 * time.Millisecond)) // the timeout fires
	if !timedOut {
		t.Fatal("WaitTimeout did not time out")
	}
	if n := o.c.Waiting(); n != 4 {
		t.Fatalf("Waiting = %d after a kill and a timeout, want 4", n)
	}
	// Signal wakes a, the oldest; the next skips the killed and timed-out
	// waiters and wakes b.
	if !o.c.Signal() || !o.c.Signal() {
		t.Fatal("Signal found no live waiter")
	}
	s.Run(Time(3 * time.Millisecond))
	if n := o.c.Broadcast(); n != 2 {
		t.Fatalf("Broadcast woke %d, want 2", n)
	}
	s.Spawn("late", func(p *Proc) {
		signalled = o.c.WaitTimeout(p, time.Second)
	})
	s.At(Time(4*time.Millisecond), func() { o.c.Signal() })
	s.RunUntilIdle(100)
	if want := []string{"a", "b", "c", "d"}; !slices.Equal(order, want) || o.woken != len(want) {
		t.Fatalf("woken in order %v, want %v", order, want)
	}
	if !signalled {
		t.Fatal("WaitTimeout timed out although signalled")
	}
	if o.c.Waiting() != 0 || o.c.Signal() {
		t.Fatal("waiters left after every waiter woke")
	}
}
