//go:build go1.23

// The build line above sets this file's language version to go1.23, which
// iter.Pull needs, while go.mod stays at go 1.22 (see README).

package sim

import (
	"errors"
	"fmt"
	"iter"
	"runtime"
	"runtime/debug"
	"time"
)

// killSentinel is the panic value used to unwind a killed process. It never
// escapes the package: the process trampoline recovers it.
type killSentinel struct{ name string }

// ErrProcPanic is the sentinel every *ProcPanic unwraps to, so a caller can
// tell a failed process from any other panic with errors.Is.
var ErrProcPanic = errors.New("sim: process panicked")

// ProcPanic is what a genuine panic inside a process becomes. It is
// re-raised on the goroutine that dispatched the process: the caller of Run,
// RunFor, RunUntilIdle or Shutdown, which can recover it as an error. The
// failed process is already marked done, and the simulator's other processes
// stay parked, so Shutdown still releases them.
type ProcPanic struct {
	Proc  string // name given at Spawn
	Value any    // the value the process panicked with
	Stack []byte // the process's stack at the panic; the re-raise loses it
}

func (e *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v", e.Proc, e.Value)
}

// Unwrap returns ErrProcPanic.
func (e *ProcPanic) Unwrap() error { return ErrProcPanic }

// gcYieldEvery is how many process resumes pass between turns handed to
// the Go scheduler. A coroutine switch goes from one goroutine straight to
// the next without entering the runtime's scheduler, and an inline resume
// (see park) does not switch at all, so at GOMAXPROCS=1 the GC's background
// mark worker would run only when forced preemption caught it: in Fig. 8,
// concurrent marking then took about 4.5 ms instead of 1 ms and the peak
// heap goal rose from 29 to 40 MB (DESIGN §8). A power of two keeps the
// check a mask.
const gcYieldEvery = 256

// Proc is a simulated process: a coroutine (iter.Pull) that runs only when
// the simulator dispatches it and that returns control by blocking on one of
// the Proc primitives (Sleep, Yield, Cond.Wait, ...). Dispatch and park are
// direct coroutine switches between the dispatching goroutine and the
// process's own, so no handoff waits in the Go scheduler. A parking process
// may first run the event callbacks queued ahead of its own wakeup on its own
// goroutine (see park); still exactly one goroutine runs simulation code at
// any moment.
type Proc struct {
	sim    *Simulator
	name   string
	next   func() (struct{}, bool) // run the process until it parks or ends
	yield  func(struct{}) bool     // from inside the process: back to next's caller
	done   bool
	killed bool
	// wakeSeq invalidates stale wakeups: every park increments it and a
	// wakeup only dispatches if it carries the current value. This makes
	// patterns like "wait with timeout" safe — the losing waker is a no-op.
	wakeSeq uint64
}

// Spawn creates a process executing fn and schedules its first dispatch at
// the current instant. fn runs entirely on the simulated timeline. The
// process's goroutine lives until fn returns or the process unwinds from a
// kill; Shutdown ends every one still parked, so iter.Pull's stop is never
// needed.
func (s *Simulator) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name}
	s.live++
	s.procs = append(s.procs, p)
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.exit()
		if p.killed {
			// Killed (e.g. by Shutdown) before ever running: unwind without
			// starting fn.
			panic(killSentinel{p.name})
		}
		fn(p)
	})
	s.atWake(s.now, p, p.prepare())
	return p
}

// exit marks the process finished. Deferred by the coroutine body, it
// recovers the kill sentinel and re-raises any other panic as a *ProcPanic,
// which iter.Pull carries to the goroutine that dispatched the process.
func (p *Proc) exit() {
	r := recover()
	p.done = true
	p.sim.live--
	if r == nil {
		return
	}
	if _, ok := r.(killSentinel); ok {
		return
	}
	panic(&ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()})
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Sim returns the owning simulator.
func (p *Proc) Sim() *Simulator { return p.sim }

// Now returns the current simulated instant.
func (p *Proc) Now() Time { return p.sim.now }

// Done reports whether the process has terminated.
func (p *Proc) Done() bool { return p.done }

// Killed reports whether the process was terminated by Kill.
func (p *Proc) Killed() bool { return p.killed }

// prepare arms the process for one wakeup and returns the token the waker
// must present.
func (p *Proc) prepare() uint64 {
	p.wakeSeq++
	return p.wakeSeq
}

// wake dispatches the process if tok is still current. Stale or post-mortem
// wakeups are ignored. Only the Run loop calls it, on the dispatching
// goroutine, never a process.
func (p *Proc) wake(tok uint64) {
	if p.done || tok != p.wakeSeq {
		return
	}
	p.dispatch()
}

// resume counts a process resume, giving the Go scheduler a turn on every
// gcYieldEvery-th.
func (s *Simulator) resume() {
	s.resumes++
	if s.resumes%gcYieldEvery == 0 {
		runtime.Gosched()
	}
}

// dispatch switches to the process and returns when it yields or ends. A
// callback panic the process recovered while draining is re-raised here.
func (p *Proc) dispatch() {
	s := p.sim
	s.resume()
	s.switches++
	prev := s.current
	s.current = p
	defer func() { s.current = prev }() // also when a panic passes through
	p.next()
	if r := s.panicked; r != nil {
		s.panicked = nil
		panic(r)
	}
}

// park blocks the process until its wakeup. The caller must already have
// arranged one (via prepare + some event calling wake). Inside Run, park
// first drains: on the process's own goroutine it runs the events ahead of
// its next dispatch, in the order the Run loop would, and when the next
// live event is its own wakeup it resumes with no coroutine switch. It
// yields to the dispatching goroutine only at another process's live wakeup
// or at the Run's bounds.
func (p *Proc) park() {
	if !p.sim.drain(p) {
		p.yield(struct{}{})
	}
	if p.killed {
		panic(killSentinel{p.name})
	}
}

// drain runs events for parking process p, reporting true when it popped
// p's own live wakeup. Callbacks see Current() == nil, as on the dispatching
// goroutine; a panicking one is recovered and kept for dispatch to re-raise,
// and p yields.
func (s *Simulator) drain(p *Proc) bool {
	s.current = nil
	for {
		fn, q, tok, ok := s.next(p)
		switch {
		case !ok:
			return false
		case q == nil:
			if !s.call(fn) {
				return false
			}
		case q == p && tok == p.wakeSeq:
			s.current = p
			s.resume()
			return true
		}
		// Otherwise a stale wakeup, dropped as wake would drop it.
	}
}

// call runs callback fn on a draining process's goroutine, reporting false
// if it panicked, with the value kept in s.panicked.
func (s *Simulator) call(fn func()) (ok bool) {
	defer func() {
		if !ok {
			s.panicked = recover()
		}
	}()
	fn()
	return true
}

// Sleep suspends the process for d of simulated time.
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		// Yield semantics: run again after everything already queued for
		// this instant. When nothing is queued at the current instant the
		// park/wake round-trip is an observable no-op (the wake would be the
		// very next event dispatched, at the same time), so skip it. Any
		// pending same-time event must still run first, hence the strict
		// ev.t > now check.
		if ev := p.sim.peekLive(); ev == nil || ev.t > p.sim.now {
			return
		}
		p.sim.atWake(p.sim.now, p, p.prepare())
		p.park()
		return
	}
	p.sim.atWake(p.sim.now.Add(d), p, p.prepare())
	p.park()
}

// SleepUntil suspends the process until instant t (or returns immediately if
// t is not in the future).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.sim.now {
		return
	}
	p.Sleep(t.Sub(p.sim.now))
}

// Yield reschedules the process after all events already queued for the
// current instant.
func (p *Proc) Yield() { p.Sleep(0) }

// Kill terminates the process: the next time it would run it unwinds
// instead. Killing an already-finished process is a no-op. A process may
// kill itself, in which case it unwinds immediately.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	if p.sim.current == p {
		panic(killSentinel{p.name})
	}
	// Invalidate whatever wakeup the process was waiting for and dispatch
	// it so park() observes the kill.
	p.sim.atWake(p.sim.now, p, p.prepare())
}
