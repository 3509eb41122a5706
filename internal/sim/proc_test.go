package sim

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestProcSleep(t *testing.T) {
	s := New(1)
	var woke Time = -1
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		woke = p.Now()
	})
	s.RunUntilIdle(100)
	if woke != Time(3*time.Millisecond) {
		t.Fatalf("woke at %v, want 3ms", woke)
	}
	if s.Live() != 0 {
		t.Fatalf("Live = %d, want 0", s.Live())
	}
}

func TestProcInterleaving(t *testing.T) {
	s := New(1)
	var log []string
	mk := func(name string, d time.Duration) {
		s.Spawn(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(d)
				log = append(log, name)
			}
		})
	}
	mk("a", 2*time.Millisecond)
	mk("b", 3*time.Millisecond)
	s.RunUntilIdle(1000)
	// a wakes at 2,4,6; b at 3,6,9. At t=6 b's timer was scheduled
	// earlier (at t=3, vs a's at t=4) so b fires first: a2 b3 a4 b6 a6 b9.
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestProcYieldRunsAfterQueuedEvents(t *testing.T) {
	s := New(1)
	var log []string
	s.Spawn("y", func(p *Proc) {
		s.At(p.Now(), func() { log = append(log, "event") })
		p.Yield()
		log = append(log, "proc")
	})
	s.RunUntilIdle(100)
	if len(log) != 2 || log[0] != "event" || log[1] != "proc" {
		t.Fatalf("log = %v", log)
	}
}

func TestSleepUntil(t *testing.T) {
	s := New(1)
	var at Time
	s.Spawn("u", func(p *Proc) {
		p.SleepUntil(Time(5 * time.Millisecond))
		p.SleepUntil(Time(time.Millisecond)) // in the past: no-op
		at = p.Now()
	})
	s.RunUntilIdle(100)
	if at != Time(5*time.Millisecond) {
		t.Fatalf("at = %v", at)
	}
}

func TestKillParkedProc(t *testing.T) {
	s := New(1)
	reached := false
	p := s.Spawn("victim", func(p *Proc) {
		p.Sleep(time.Hour)
		reached = true
	})
	s.At(Time(time.Millisecond), func() { p.Kill() })
	s.RunUntilIdle(100)
	if reached {
		t.Fatal("killed process continued past Sleep")
	}
	if !p.Done() || !p.Killed() {
		t.Fatalf("Done=%v Killed=%v", p.Done(), p.Killed())
	}
	if s.Live() != 0 {
		t.Fatalf("Live = %d", s.Live())
	}
}

func TestKillSelf(t *testing.T) {
	s := New(1)
	after := false
	var p *Proc
	p = s.Spawn("suicide", func(q *Proc) {
		q.Kill()
		after = true
	})
	s.RunUntilIdle(100)
	if after {
		t.Fatal("self-kill did not unwind immediately")
	}
	if !p.Done() {
		t.Fatal("not done")
	}
}

func TestKillFinishedProcIsNoop(t *testing.T) {
	s := New(1)
	p := s.Spawn("quick", func(p *Proc) {})
	s.RunUntilIdle(100)
	p.Kill() // must not panic or wedge
	s.RunUntilIdle(100)
}

func TestStaleWakeupIgnored(t *testing.T) {
	// A process that sleeps twice must not be woken early by the first
	// timer if an external event re-dispatches it in between. The token
	// scheme guarantees this; simulate the hazard via Cond timeout.
	s := New(1)
	c := NewCond(s)
	var woke []Time
	s.Spawn("w", func(p *Proc) {
		// Wait with a 10ms timeout, get signalled at 2ms.
		if !c.WaitTimeout(p, 10*time.Millisecond) {
			t.Error("expected signal, got timeout")
		}
		woke = append(woke, p.Now())
		// Then sleep past the original timeout; the stale timer at
		// 10ms must not cut this short.
		p.Sleep(20 * time.Millisecond)
		woke = append(woke, p.Now())
	})
	s.At(Time(2*time.Millisecond), func() { c.Signal() })
	s.RunUntilIdle(1000)
	if len(woke) != 2 || woke[0] != Time(2*time.Millisecond) || woke[1] != Time(22*time.Millisecond) {
		t.Fatalf("woke = %v", woke)
	}
}

func TestProcDeterminism(t *testing.T) {
	run := func() []string {
		s := New(99)
		var log []string
		for i := 0; i < 5; i++ {
			name := string(rune('a' + i))
			s.Spawn(name, func(p *Proc) {
				for j := 0; j < 4; j++ {
					p.Sleep(time.Duration(s.Rand().Intn(500)+1) * time.Microsecond)
					log = append(log, name)
				}
			})
		}
		s.RunUntilIdle(10000)
		return log
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestSpawnFromProc(t *testing.T) {
	s := New(1)
	var childRan Time = -1
	s.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Millisecond)
		s.Spawn("child", func(c *Proc) {
			c.Sleep(time.Millisecond)
			childRan = c.Now()
		})
		p.Sleep(5 * time.Millisecond)
	})
	s.RunUntilIdle(100)
	if childRan != Time(2*time.Millisecond) {
		t.Fatalf("child ran at %v, want 2ms", childRan)
	}
}

func TestNegativeSleepIsImmediate(t *testing.T) {
	s := New(1)
	done := false
	s.Spawn("n", func(p *Proc) {
		p.Sleep(-time.Second)
		done = true
	})
	s.RunUntilIdle(10)
	if !done || s.Now() != 0 {
		t.Fatalf("done=%v now=%v", done, s.Now())
	}
}

func TestShutdownReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(1)
	c := NewCond(s)
	full := NewQueue[int](s, 1)
	full.TrySend(0)
	empty := NewQueue[int](s, 1)
	// A mix of states at shutdown: parked at every park point, never
	// dispatched, and already finished.
	parkPoints := []struct {
		name string
		park func(p *Proc)
	}{
		{"Sleep", func(p *Proc) { p.Sleep(time.Hour) }},
		{"Cond.Wait", func(p *Proc) { c.Wait(p) }},
		{"Cond.WaitTimeout", func(p *Proc) { c.WaitTimeout(p, time.Hour) }},
		{"Queue.Send on a full queue", func(p *Proc) { full.Send(p, 1) }},
		{"Queue.Recv on an empty queue", func(p *Proc) { empty.Recv(p) }},
	}
	const each = 10
	defers := make([]atomic.Int32, len(parkPoints))
	for i, pp := range parkPoints {
		for j := 0; j < each; j++ {
			s.Spawn(pp.name, func(p *Proc) {
				defer defers[i].Add(1)
				pp.park(p)
				t.Errorf("killed process ran past its park point in %s", pp.name)
			})
		}
	}
	s.Spawn("quick", func(p *Proc) {})
	s.RunFor(time.Millisecond)
	started := false
	s.Spawn("late", func(p *Proc) { started = true }) // scheduled, never run
	s.Shutdown()
	if started {
		t.Error("process spawned after the run executed during Shutdown")
	}
	if s.Live() != 0 {
		t.Fatalf("Live = %d after Shutdown", s.Live())
	}
	for i, pp := range parkPoints {
		if n := defers[i].Load(); n != each {
			t.Errorf("%s: %d deferred cleanups ran, want %d (kill must unwind the stack)", pp.name, n, each)
		}
	}
	waitGoroutines(t, before)
}

// waitGoroutines fails the test unless the goroutine count falls back to
// before within a few seconds.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines = %d, baseline %d: Shutdown leaked", n, before)
	}
}

func TestProcPanicReachesRunCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(1)
	var unwound atomic.Bool
	s.Spawn("bystander", func(p *Proc) {
		defer unwound.Store(true)
		p.Sleep(time.Hour)
		t.Error("bystander ran past its park point")
	})
	s.Spawn("faulty", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("page table corrupt")
	})
	var r any
	func() {
		defer func() { r = recover() }()
		s.RunFor(time.Second)
	}()
	err, ok := r.(error)
	if !ok {
		t.Fatalf("Run raised %v (%T), want an error", r, r)
	}
	if !errors.Is(err, ErrProcPanic) {
		t.Errorf("errors.Is(%v, ErrProcPanic) = false", err)
	}
	var pp *ProcPanic
	if !errors.As(err, &pp) {
		t.Fatalf("errors.As(%v, *ProcPanic) = false", err)
	}
	if pp.Proc != "faulty" || pp.Value != "page table corrupt" {
		t.Errorf("ProcPanic{Proc: %q, Value: %v}, want faulty / page table corrupt", pp.Proc, pp.Value)
	}
	if !strings.Contains(string(pp.Stack), "TestProcPanicReachesRunCaller") {
		t.Errorf("Stack does not reach the panicking function:\n%s", pp.Stack)
	}
	if s.Current() != nil {
		t.Errorf("Current() = %q after the panic, want nil", s.Current().Name())
	}
	if s.Now() != Time(time.Millisecond) {
		t.Errorf("Now = %v, want the panic's instant 1ms", s.Now())
	}
	if s.Live() != 1 {
		t.Errorf("Live = %d, want 1 (the bystander)", s.Live())
	}
	s.Shutdown()
	if !unwound.Load() {
		t.Error("Shutdown did not unwind the parked bystander")
	}
	waitGoroutines(t, before)
}

func TestShutdownIdempotentOnFinishedSim(t *testing.T) {
	s := New(1)
	s.Spawn("quick", func(p *Proc) {})
	s.RunUntilIdle(100)
	s.Shutdown()
	s.Shutdown() // second call is a no-op
}

// inDrain reports whether the caller runs inside a parking process's drain,
// on that process's goroutine, rather than on the goroutine that called Run.
func inDrain() bool {
	return strings.Contains(string(debug.Stack()), "(*Simulator).drain")
}

func TestDrainSwitchCounts(t *testing.T) {
	const n = 100
	s := New(1)
	s.Spawn("lone", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	s.Run(Time(time.Second))
	// The first dispatch is the one switch; every later wakeup is the
	// process's own next event, so it resumes inline.
	if s.switches > 1 || s.resumes != n+1 {
		t.Errorf("lone sleeper: %d switches, %d resumes; want at most 1 switch of %d resumes", s.switches, s.resumes, n+1)
	}

	// Two processes whose wakeups alternate: every wakeup is another
	// process's, so each one still takes a coroutine switch.
	s = New(1)
	for i, name := range []string{"a", "b"} {
		start := Time(time.Duration(i+1) * time.Microsecond)
		s.Spawn(name, func(p *Proc) {
			p.SleepUntil(start)
			for j := 0; j < n; j++ {
				p.Sleep(2 * time.Microsecond)
			}
		})
	}
	s.Run(Time(time.Second))
	if s.switches != s.resumes || s.resumes != 2*(n+2) {
		t.Errorf("alternating pair: %d switches, %d resumes; want %d of each", s.switches, s.resumes, 2*(n+2))
	}
}

func TestDrainCallbackPanicReachesRunCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(1)
	var unwound atomic.Bool
	p := s.Spawn("drainer", func(p *Proc) {
		defer unwound.Store(true)
		p.Sleep(2 * time.Millisecond)
		t.Error("drainer resumed past the panicking callback")
	})
	inline := false
	s.At(Time(time.Millisecond), func() {
		inline = inDrain()
		panic("callback failed")
	})
	var r any
	func() {
		defer func() { r = recover() }()
		s.RunFor(time.Second)
	}()
	if !inline {
		t.Error("the callback did not run inside the drainer's park")
	}
	if r != "callback failed" {
		t.Errorf("Run raised %v (%T), want the callback's own value", r, r)
	}
	if s.Current() != nil {
		t.Errorf("Current() = %q after the panic, want nil", s.Current().Name())
	}
	if p.Done() || s.Live() != 1 {
		t.Errorf("Done = %v, Live = %d: the drainer must stay parked", p.Done(), s.Live())
	}
	s.Shutdown()
	if !unwound.Load() {
		t.Error("Shutdown did not unwind the parked drainer")
	}
	waitGoroutines(t, before)
}

func TestDrainStopsAtRunHorizon(t *testing.T) {
	s := New(1)
	var log []string
	note := func(what string) { log = append(log, fmt.Sprintf("%s@%v", what, s.Now().Duration())) }
	p := s.Spawn("p", func(p *Proc) {
		p.Sleep(time.Millisecond)
		note("p")
		p.Sleep(10 * time.Millisecond)
		note("p")
	})
	for _, at := range []time.Duration{5, 11, 12} {
		s.At(Time(at*time.Millisecond), func() {
			if s.Now() > s.until {
				t.Errorf("callback ran at %v, past the horizon %v", s.Now(), s.until)
			}
			note("c")
		})
	}
	s.Run(Time(8 * time.Millisecond))
	if got, want := strings.Join(log, " "), "p@1ms c@5ms"; got != want {
		t.Errorf("first Run: %s, want %s", got, want)
	}
	if s.Now() != Time(8*time.Millisecond) || p.Done() {
		t.Errorf("after the first Run: Now = %v, Done = %v; want 8ms, parked", s.Now(), p.Done())
	}
	s.Run(Time(20 * time.Millisecond))
	// At 11 ms the callback was queued before the process's wakeup.
	if got, want := strings.Join(log, " "), "p@1ms c@5ms c@11ms p@11ms c@12ms"; got != want {
		t.Errorf("both Runs: %s, want %s", got, want)
	}
	if !p.Done() {
		t.Error("process did not finish in the second Run")
	}
}

func TestDrainKillFromCallback(t *testing.T) {
	// The same kill, issued from a callback the victim runs in its own
	// drain and from one the dispatching goroutine runs while a second
	// process holds the victim's place, must unwind the victim alike.
	for _, viaDrain := range []bool{true, false} {
		s := New(1)
		var woke int
		var unwoundAt Time = -1
		victim := s.Spawn("victim", func(p *Proc) {
			defer func() { unwoundAt = s.Now() }()
			for {
				p.Sleep(time.Millisecond)
				woke++
			}
		})
		if !viaDrain {
			// Its wakeup at 2.5 ms is queued ahead of the kill, so the
			// victim, parked at 2 ms, yields to it instead of running the
			// kill itself, and the dispatching goroutine runs the kill
			// after "other" ends.
			s.Spawn("other", func(p *Proc) { p.SleepUntil(Time(2500 * time.Microsecond)) })
		}
		inline := false
		s.At(Time(time.Millisecond), func() {
			s.At(Time(2500*time.Microsecond), func() {
				inline = inDrain()
				victim.Kill()
			})
		})
		s.RunUntilIdle(100)
		if inline != viaDrain {
			t.Errorf("viaDrain=%v: callback ran in a drain = %v", viaDrain, inline)
		}
		if woke != 2 || unwoundAt != Time(2500*time.Microsecond) {
			t.Errorf("viaDrain=%v: woke %d times, unwound at %v; want 2, 2.5ms", viaDrain, woke, unwoundAt)
		}
		if !victim.Done() || !victim.Killed() || s.Live() != 0 {
			t.Errorf("viaDrain=%v: Done = %v, Killed = %v, Live = %d", viaDrain, victim.Done(), victim.Killed(), s.Live())
		}
	}
}
