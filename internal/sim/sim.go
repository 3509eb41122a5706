package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// event is a scheduled callback. Events with equal time fire in the order
// they were scheduled (seq breaks ties), which makes the whole simulation
// deterministic.
//
// An event either runs a callback (fn != nil) or wakes a parked process
// (p != nil): process wakeups are frequent enough on the fault path that
// dedicating fields to them avoids a closure allocation per Sleep, Signal
// and Spawn. Fired and cancelled events return to the simulator's free list;
// gen guards Timers against recycled events (a Timer only refers to the
// incarnation it was issued for).
type event struct {
	t    Time
	seq  uint64
	fn   func()
	p    *Proc  // wake target when fn == nil
	tok  uint64 // wake token for p
	dead bool   // cancelled
	gen  uint32 // incarnation; bumped every recycle
}

// eventHeap is a concrete 4-ary min-heap ordered by (time, seq). A 4-ary
// layout halves the tree depth of a binary heap (fewer cache misses on
// sift-down) and the concrete element type removes the container/heap
// interface dispatch and interface{} boxing from the per-event hot path.
// The (time, seq) key is a total order — no two live events compare equal —
// so heap dispatch order is exactly FIFO among same-time events regardless
// of internal sibling layout.
type eventHeap []*event

func eventLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// push inserts ev, sifting up.
func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the minimum, sifting down.
func (h *eventHeap) pop() *event {
	s := *h
	n := len(s)
	top := s[0]
	last := s[n-1]
	s[n-1] = nil
	s = s[:n-1]
	*h = s
	n--
	if n > 0 {
		s[0] = last
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			min := first
			end := first + 4
			if end > n {
				end = n
			}
			for c := first + 1; c < end; c++ {
				if eventLess(s[c], s[min]) {
					min = c
				}
			}
			if !eventLess(s[min], s[i]) {
				break
			}
			s[i], s[min] = s[min], s[i]
			i = min
		}
	}
	return top
}

// Simulator owns the simulated clock and the event queue. It is not safe for
// use from multiple goroutines except through the process model, which
// guarantees only one goroutine touches it at a time: the goroutine that
// called Run, or the process it is switched into (whose park may run event
// callbacks itself, see Proc.park).
type Simulator struct {
	now     Time
	events  eventHeap
	seq     uint64
	free    []*event // recycled events
	src     *countingSource
	rng     *rand.Rand
	current *Proc   // process currently executing, if any
	live    int     // spawned processes that have not yet finished
	procs   []*Proc // every spawned process, for Shutdown

	// until and stopAt bound the active Run: no event later than until and
	// no dispatch past the stopAt-th runs. Outside a Run stopAt is 0, which
	// also keeps a parking process from draining (see Proc.park).
	until  Time
	stopAt int64

	// resumes counts every process resume, inline or not; every
	// gcYieldEvery-th one yields to the Go scheduler first. switches counts
	// the coroutine switches among them: calls of a process's next.
	resumes  uint64
	switches uint64

	// panicked holds a callback's panic recovered on a draining process's
	// goroutine, for dispatch to re-raise on the goroutine that called Run.
	panicked any

	// dispatched counts events run since construction; a deterministic
	// measure of how much simulated work a run performed.
	dispatched int64

	// donations maps a process to a wake-event sequence number reserved for
	// it by a snapshot (see DonateWakeSeq): a respawned service loop's next
	// timed park at the recorded instant reuses the parent event's seq, so
	// same-instant tie order is identical on both sides of a fork.
	donations map[*Proc]donatedWake

	// Trace, when non-nil, receives a line for every dispatched event.
	// Used only by tests and debugging tools.
	Trace func(t Time, what string)
}

// New returns a simulator whose random source is seeded with seed. The same
// seed always yields the same execution. The source is the stdlib one behind
// a draw counter, so the stream is identical to rand.New(rand.NewSource(seed))
// and a Fork can clone the position exactly.
func New(seed int64) *Simulator {
	src := newCountingSource(seed)
	return &Simulator{src: src, rng: rand.New(src)}
}

// Now returns the current simulated instant.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulator's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Live reports the number of spawned processes that have not terminated.
func (s *Simulator) Live() int { return s.live }

// Current returns the process currently executing, or nil when the
// scheduler (an event callback) is running.
func (s *Simulator) Current() *Proc { return s.current }

// Pending reports the number of events still queued (including cancelled
// placeholders not yet popped).
func (s *Simulator) Pending() int { return len(s.events) }

// Dispatched reports how many events have been run so far. It depends only
// on the seed and the workload, never on wall-clock, so identical runs
// report identical counts.
func (s *Simulator) Dispatched() int64 { return s.dispatched }

// Timer identifies a scheduled event and allows cancellation.
type Timer struct {
	ev  *event
	gen uint32
}

// Stop cancels the timer if it has not fired. It reports whether the timer
// was still pending.
func (t Timer) Stop() bool {
	if t.ev == nil || t.ev.gen != t.gen || t.ev.dead {
		return false
	}
	t.ev.dead = true
	return true
}

// alloc takes an event from the free list (or the heap allocator), stamping
// it with the next sequence number and time t.
func (s *Simulator) alloc(t Time) *event {
	if t < s.now {
		t = s.now
	}
	s.seq++
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.t = t
	ev.seq = s.seq
	return ev
}

// recycle returns a popped event to the free list, invalidating any Timer
// still referring to it.
func (s *Simulator) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.p = nil
	ev.tok = 0
	ev.dead = false
	s.free = append(s.free, ev)
}

// At schedules fn to run at instant t. Scheduling in the past is an error in
// the caller; the event is clamped to "now" to keep time monotonic.
func (s *Simulator) At(t Time, fn func()) Timer {
	ev := s.alloc(t)
	ev.fn = fn
	s.events.push(ev)
	return Timer{ev, ev.gen}
}

// atWake schedules a wakeup of p with token tok at instant t, without
// allocating a closure. A pending seq donation for (p, t) — registered by a
// snapshot via DonateWakeSeq — replaces the freshly drawn seq so the park
// event sorts exactly where the parent world's did.
func (s *Simulator) atWake(t Time, p *Proc, tok uint64) Timer {
	ev := s.alloc(t)
	if d, ok := s.donations[p]; ok && d.t == ev.t {
		ev.seq = d.seq
		delete(s.donations, p)
	}
	ev.p = p
	ev.tok = tok
	s.events.push(ev)
	return Timer{ev, ev.gen}
}

// After schedules fn to run d after the current instant.
func (s *Simulator) After(d time.Duration, fn func()) Timer {
	return s.At(s.now.Add(d), fn)
}

// peekLive returns the earliest pending live event, discarding cancelled
// ones, or nil when the queue is (effectively) empty. The common case, a
// live head, stays small enough to inline.
func (s *Simulator) peekLive() *event {
	if len(s.events) > 0 && !s.events[0].dead {
		return s.events[0]
	}
	return s.skipDead()
}

// skipDead discards cancelled events from the head of the queue and returns
// the first live one, or nil.
func (s *Simulator) skipDead() *event {
	for len(s.events) > 0 {
		next := s.events[0]
		if !next.dead {
			return next
		}
		s.events.pop()
		s.recycle(next)
	}
	return nil
}

// next pops the earliest live event within the active Run's bounds,
// advancing the clock, and returns what it does: a callback fn, or a wakeup
// of p with token tok. It is the one place that decides event order, for
// the Run loop and for a draining process alike. For a draining process
// self, a live wakeup of any other process stays queued: only the
// dispatching goroutine switches into a process. ok is false when nothing
// is popped.
func (s *Simulator) next(self *Proc) (fn func(), p *Proc, tok uint64, ok bool) {
	if s.dispatched >= s.stopAt {
		return nil, nil, 0, false
	}
	ev := s.peekLive()
	if ev == nil || ev.t > s.until {
		return nil, nil, 0, false
	}
	if q := ev.p; self != nil && q != nil && q != self && !q.done && ev.tok == q.wakeSeq {
		return nil, nil, 0, false
	}
	s.events.pop()
	s.dispatched++
	if ev.t > s.now {
		s.now = ev.t
	}
	fn, p, tok = ev.fn, ev.p, ev.tok
	s.recycle(ev)
	return fn, p, tok, true
}

// run executes events up to instant until and up to the stopAt-th dispatch,
// then restores the previous bounds. A panic leaves the bounds set; Shutdown,
// the one dispatcher outside Run, clears them.
func (s *Simulator) run(until Time, stopAt int64) {
	prevUntil, prevStop := s.until, s.stopAt
	s.until, s.stopAt = until, stopAt
	for {
		fn, p, tok, ok := s.next(nil)
		if !ok {
			break
		}
		if p != nil {
			p.wake(tok)
		} else {
			fn()
		}
	}
	s.until, s.stopAt = prevUntil, prevStop
}

// Run executes events until the queue is exhausted or the clock would pass
// until. On return the clock reads min(until, time of last event run), and
// is advanced to until if the queue drained earlier. Callbacks run on the
// calling goroutine or on a parking process's (see Proc.park); either way
// one goroutine runs simulation code at a time, and a panic in a callback
// or a process reaches the caller of Run.
func (s *Simulator) Run(until Time) {
	s.run(until, math.MaxInt64)
	if s.now < until {
		s.now = until
	}
}

// RunFor runs the simulation for duration d from the current instant.
func (s *Simulator) RunFor(d time.Duration) { s.Run(s.now.Add(d)) }

// Shutdown unwinds every live process, releasing the goroutine backing each
// one. Without it a finished simulation leaks one parked goroutine per live
// process — invisible in a run-once CLI, fatal in a long-lived daemon. Each
// process is dispatched exactly once with its kill flag set, so it panics out
// of its park point (running its defers) without executing further workload.
// The simulator must not be used afterwards. Must be called from scheduler
// context (never from inside a process).
func (s *Simulator) Shutdown() {
	s.stopAt = 0 // no draining: each process runs only its own unwind
	for _, p := range s.procs {
		if p.done {
			continue
		}
		p.killed = true
		p.prepare() // invalidate any queued wakeup so only this dispatch lands
		p.dispatch()
	}
	s.procs = nil
}

// RunUntilIdle executes events until none remain. It panics if the
// simulation exceeds maxEvents dispatches, which indicates a runaway loop.
// The count covers events run anywhere, a draining process's included, so
// a process that keeps waking itself is caught too.
func (s *Simulator) RunUntilIdle(maxEvents int) {
	start := s.dispatched
	s.run(Time(1<<62-1), start+int64(maxEvents)+1)
	if s.dispatched-start > int64(maxEvents) {
		panic(fmt.Sprintf("sim: RunUntilIdle exceeded %d events at t=%v", maxEvents, s.now))
	}
}
