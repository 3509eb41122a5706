package sim

import (
	"fmt"
	"math/rand"
	"sort"
)

// countingSource wraps the stdlib random source and counts draws. The count
// makes the source cloneable without access to rand's unexported state: a
// clone is the same seed fast-forwarded the same number of steps. Every
// rand.Rand derivation (Int63, Uint64, Intn, Float64, ...) consumes whole
// source steps, so step count fully determines the stream position.
type countingSource struct {
	src  rand.Source64
	seed int64
	n    uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64), seed: seed}
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.seed = seed
	c.n = 0
}

// clone returns an independent source at the same stream position.
func (c *countingSource) clone() *countingSource {
	cl := newCountingSource(c.seed)
	for i := uint64(0); i < c.n; i++ {
		cl.src.Uint64()
	}
	cl.n = c.n
	return cl
}

// Fork returns a new simulator whose clock, sequence counter, dispatch count
// and random stream are copies of s's at this instant. The event queue and
// process set start empty: the owning subsystems re-arm their pending timers
// (RestoreAt) and respawn their service processes, which is the only faithful
// way to checkpoint a Go-goroutine-backed process — stacks cannot be cloned,
// so a fork point must be an instant where every live process is a service
// loop that can be respawned equivalently.
//
// Forked simulators are fully independent: Shutdown or Kill on one never
// touches the other's processes, and their random streams diverge from the
// shared position without interference.
func (s *Simulator) Fork() *Simulator {
	src := s.src.clone()
	return &Simulator{
		now:        s.now,
		seq:        s.seq,
		dispatched: s.dispatched,
		src:        src,
		rng:        rand.New(src),
		maxChain:   s.maxChain,
	}
}

// RandDraws reports how many steps of the random stream have been consumed.
// A fork is only exact if the child reproduces the same position, which
// Fork does automatically; this accessor exists for tests and snapshots.
func (s *Simulator) RandDraws() uint64 { return s.src.n }

// When reports a pending timer's scheduled instant and sequence number.
// ok is false if the timer already fired, was stopped, or was recycled.
// Snapshots use (t, seq) to re-arm the timer in a forked world with its
// original position in the same-instant tie order.
func (t Timer) When() (at Time, seq uint64, ok bool) {
	if t.ev == nil || t.ev.gen != t.gen || t.ev.dead {
		return 0, 0, false
	}
	return t.ev.t, t.ev.seq, true
}

// RestoreAt schedules fn at instant t with an explicit sequence number taken
// from a snapshot of another simulator. It exists only for rebuilding a
// forked world's pending timers: re-armed events keep their original
// same-instant ordering relative to each other and sort before anything the
// child schedules afresh (which draws sequence numbers above the copied
// counter). seq must come from Timer.When on the parent.
func (s *Simulator) RestoreAt(t Time, seq uint64, fn func()) Timer {
	if seq > s.seq {
		panic(fmt.Sprintf("sim: RestoreAt seq %d above counter %d — not from a snapshot", seq, s.seq))
	}
	if t < s.now {
		t = s.now
	}
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.t = t
	ev.seq = seq
	ev.fn = fn
	s.events.push(ev)
	return Timer{ev, ev.gen}
}

// donatedWake is a wake-event sequence number reserved for a respawned
// service process (see DonateWakeSeq).
type donatedWake struct {
	t   Time
	seq uint64
}

// ParkedWake reports the live timed wakeup pending for parked process p: the
// instant and sequence number of the event WaitTimeout (or Sleep) queued for
// it. ok is false when p has no pending timed wakeup — parked on a plain
// Wait, running, or finished. Snapshots use it to donate the parent loop's
// park position to the respawned twin.
func (s *Simulator) ParkedWake(p *Proc) (Time, uint64, bool) {
	for _, ev := range s.events {
		if !ev.dead && ev.p == p && ev.tok == p.wakeSeq {
			return ev.t, ev.seq, true
		}
	}
	for i := 0; i < s.ready.n; i++ {
		if ev := s.ready.at(i); !ev.dead && ev.p == p && ev.tok == p.wakeSeq {
			return ev.t, ev.seq, true
		}
	}
	return 0, 0, false
}

// DonateWakeSeq arranges for the next timed park of p at exactly instant t to
// reuse seq — a sequence number recorded from the parent world's equivalent
// park event via ParkedWake — instead of drawing a fresh one. Respawned
// service loops re-derive their park from scratch, which would otherwise give
// the park event a fresh (higher) seq than the parent's; at same-instant ties
// with other timers that difference flips dispatch order and the fork stops
// being byte-identical. The donation is consumed on first matching use and is
// harmless if never used (the loop may re-park via a plain Wait instead).
// seq must come from a snapshot: it must lie at or below the copied counter.
func (s *Simulator) DonateWakeSeq(p *Proc, t Time, seq uint64) {
	if seq > s.seq {
		panic(fmt.Sprintf("sim: DonateWakeSeq seq %d above counter %d — not from a snapshot", seq, s.seq))
	}
	if s.donations == nil {
		s.donations = make(map[*Proc]donatedWake)
	}
	s.donations[p] = donatedWake{t: t, seq: seq}
}

// PendingSeqs returns the sequence numbers of every live (non-cancelled)
// pending callback event, sorted. Process wakeups (parked Sleep/Cond waits)
// are excluded: forks respawn service processes rather than cloning their
// stacks, so their park events are re-created by the respawned loops.
// Snapshots assert that the subsystems' claimed timers account for exactly
// the live callback queue — a forgotten timer would otherwise silently
// vanish from the forked world.
func (s *Simulator) PendingSeqs() []uint64 {
	out := make([]uint64, 0, s.Pending())
	for i := 0; i < s.ready.n; i++ {
		if ev := s.ready.at(i); !ev.dead && ev.fn != nil {
			out = append(out, ev.seq)
		}
	}
	for _, ev := range s.events {
		if !ev.dead && ev.fn != nil {
			out = append(out, ev.seq)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LiveProcNames returns the names of processes that have not terminated,
// in spawn order. Snapshot preconditions use it to report which workload
// processes are still running at an attempted fork point.
func (s *Simulator) LiveProcNames() []string {
	var out []string
	for _, p := range s.procs {
		if !p.done {
			out = append(out, p.name)
		}
	}
	return out
}
