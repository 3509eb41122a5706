package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// runHandoffCase runs the queue harness's random programs, with at most one
// panic at a random operation, at the handoff bound and at bound 1, where only
// the Run loop switches into a process. Each run must pass the (t, seq)
// reference check, never nest past its bound, and leave the same log of
// filed and popped events, the instants the callbacks and processes
// observed, Dispatched and the panic that reached the caller of Run.
func runHandoffCase(tb testing.TB, seed int64, ops int) {
	tb.Helper()
	var logs [2][]string
	var switches [2]uint64
	for i, bound := range []int{maxChain, 1} {
		rng := rand.New(rand.NewSource(seed))
		s := New(seed)
		s.maxChain = bound
		if f := s.Fork(); f.maxChain != bound {
			tb.Fatalf("Fork's bound is %d, want the parent's %d", f.maxChain, bound)
		}
		d := newQueueHarness(tb, s, rng, ops)
		d.panicAt = rng.Intn(ops + 1)
		d.run(1+rng.Intn(3), rng.Intn(4))
		d.check()
		logs[i], switches[i] = d.transcript(), s.switches
		d.shutdown()
	}
	if !slices.Equal(logs[0], logs[1]) {
		i := 0
		for i < len(logs[0]) && i < len(logs[1]) && logs[0][i] == logs[1][i] {
			i++
		}
		tb.Fatalf("seed %d: logs part at entry %d of %d/%d: handoff %q, bound 1 %q",
			seed, i, len(logs[0]), len(logs[1]), at(logs[0], i), at(logs[1], i))
	}
	if switches[0] > switches[1] {
		tb.Fatalf("seed %d: %d coroutine switches with handoff, %d without", seed, switches[0], switches[1])
	}
}

func at(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "(end)"
}

// TestProcHandoffMatchesBoundOne is FuzzProcHandoff's harness over fixed
// seeds.
func TestProcHandoffMatchesBoundOne(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		runHandoffCase(t, seed, 300)
	}
}

// FuzzProcHandoff holds random process programs (sleeps, Cond waits and
// signals, timeouts, kills, spawns, callbacks and a panic) to the same
// event order with and without handoff.
func FuzzProcHandoff(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42} {
		f.Add(seed, uint16(300))
	}
	f.Fuzz(func(t *testing.T, seed int64, ops uint16) {
		runHandoffCase(t, seed, int(ops%500))
	})
}

func TestHandoffPanicReachesRunCaller(t *testing.T) {
	// The dispatcher, parked at 1 ms, dispatches faulty itself at 2 ms;
	// without handoff the Run loop does.
	for _, c := range []struct{ maxChain, chain int }{{maxChain, 2}, {1, 1}} {
		before := runtime.NumGoroutine()
		s := New(1)
		s.maxChain = c.maxChain
		var unwound atomic.Bool
		dispatcher := s.Spawn("dispatcher", func(p *Proc) {
			defer unwound.Store(true)
			p.Sleep(time.Millisecond)
			p.Sleep(time.Hour)
			t.Error("dispatcher ran past its park point")
		})
		chain := 0
		s.Spawn("faulty", func(p *Proc) {
			p.Sleep(2 * time.Millisecond)
			chain = s.chain
			panic("worker fault")
		})
		var r any
		func() {
			defer func() { r = recover() }()
			s.RunFor(time.Second)
		}()
		if chain != c.chain {
			t.Errorf("bound %d: faulty ran in a chain of %d, want %d", c.maxChain, chain, c.chain)
		}
		err, _ := r.(error)
		var pp *ProcPanic
		if !errors.As(err, &pp) || pp.Proc != "faulty" || pp.Value != "worker fault" {
			t.Fatalf("bound %d: Run raised %v (%T), want faulty's own *ProcPanic", c.maxChain, r, r)
		}
		if s.Current() != nil || s.chain != 0 || s.panicked != nil || dispatcher.dispatching {
			t.Errorf("bound %d: after the panic Current = %v, chain = %d, panicked = %v, dispatching = %v",
				c.maxChain, s.Current(), s.chain, s.panicked, dispatcher.dispatching)
		}
		if s.Now() != Time(2*time.Millisecond) {
			t.Errorf("bound %d: Now = %v, want the panic's instant 2ms", c.maxChain, s.Now())
		}
		if dispatcher.Done() || s.Live() != 1 {
			t.Errorf("bound %d: dispatcher Done = %v, Live = %d: the dispatcher must stay parked",
				c.maxChain, dispatcher.Done(), s.Live())
		}
		s.Shutdown()
		if !unwound.Load() {
			t.Errorf("bound %d: Shutdown did not unwind the parked dispatcher", c.maxChain)
		}
		waitGoroutines(t, before)
	}
}

func TestHandoffKillWhileDispatching(t *testing.T) {
	// The victim, parked at 2 ms, dispatches the killer, whose wakeup at
	// 2.5 ms comes first, and the killer kills it. With handoff the victim
	// is an ancestor in the chain when the kill lands, and unwinds once the
	// killer parks and the chain returns to it: at the same instant as
	// without handoff, where the Run loop dispatches the victim's unwind.
	for _, bound := range []int{maxChain, 1} {
		s := New(1)
		s.maxChain = bound
		woke := 0
		var unwoundAt, killerDone Time = -1, -1
		victim := s.Spawn("victim", func(p *Proc) {
			defer func() { unwoundAt = s.Now() }()
			for {
				p.Sleep(time.Millisecond)
				woke++
			}
		})
		dispatching := false
		s.Spawn("killer", func(p *Proc) {
			p.SleepUntil(Time(2500 * time.Microsecond))
			dispatching = victim.dispatching
			victim.Kill()
			p.Sleep(time.Microsecond)
			killerDone = p.Now()
		})
		s.RunUntilIdle(100)
		if want := bound > 1; dispatching != want {
			t.Errorf("bound %d: victim dispatching at the kill = %v, want %v", bound, dispatching, want)
		}
		if woke != 2 || unwoundAt != Time(2500*time.Microsecond) || killerDone != Time(2501*time.Microsecond) {
			t.Errorf("bound %d: victim woke %d times, unwound at %v, killer ended at %v; want 2, 2.5ms, 2.501ms",
				bound, woke, unwoundAt, killerDone)
		}
		if !victim.Done() || !victim.Killed() || s.Live() != 0 || s.chain != 0 {
			t.Errorf("bound %d: Done = %v, Killed = %v, Live = %d, chain = %d",
				bound, victim.Done(), victim.Killed(), s.Live(), s.chain)
		}
	}
}

func TestHandoffRoundRobinStaysWithinBound(t *testing.T) {
	// 100 processes whose wakeups come in turn: each one's next wakeup is
	// the following process's, so every drain could hand off, and the
	// chain would nest all 100 without the bound.
	const procs, rounds = 100, 5
	run := func(bound int) (log []string, peak int, switches uint64) {
		s := New(1)
		s.maxChain = bound
		for i := 0; i < procs; i++ {
			s.Spawn(fmt.Sprint("p", i), func(p *Proc) {
				p.SleepUntil(Time(time.Duration(i+1) * time.Microsecond))
				for r := 0; r < rounds; r++ {
					peak = max(peak, s.chain)
					log = append(log, fmt.Sprintf("%s@%v", p.Name(), p.Now()))
					p.Sleep(procs * time.Microsecond)
				}
			})
		}
		s.RunUntilIdle(2 * procs * (rounds + 2))
		if s.Live() != 0 || s.chain != 0 {
			t.Errorf("bound %d: Live = %d, chain = %d after the run", bound, s.Live(), s.chain)
		}
		return log, peak, s.switches
	}
	got, peak, switches := run(maxChain)
	want, refPeak, refSwitches := run(1)
	if !slices.Equal(got, want) {
		t.Errorf("handoff changed the order of resumes")
	}
	if peak != maxChain || refPeak != 1 {
		t.Errorf("peak chain %d with handoff, %d without; want %d and 1", peak, refPeak, maxChain)
	}
	if switches >= refSwitches {
		t.Errorf("%d coroutine switches with handoff, %d without", switches, refSwitches)
	}
}
