package sim

import "time"

// waiter pairs a parked process with the wake token it is expecting.
type waiter struct {
	p   *Proc
	tok uint64
}

// Cond is a FIFO condition variable on the simulated timeline. Unlike
// sync.Cond there is no associated lock: the process model guarantees mutual
// exclusion already. The zero value is ready to use, so owners embed a Cond
// by value: a wake is scheduled on the waiter's own simulator. The waiter
// queue is head-indexed so that steady-state signal/wait traffic reuses one
// backing array instead of reslicing (and eventually reallocating) on every
// Signal.
type Cond struct {
	waiters []waiter
	head    int
}

// Waiting reports the number of processes currently parked on the condition.
// Stale entries (woken by a timeout, killed) are excluded.
func (c *Cond) Waiting() int {
	n := 0
	for _, w := range c.waiters[c.head:] {
		if w.p.awaits(w.tok) {
			n++
		}
	}
	return n
}

// enqueue appends a waiter, compacting the consumed head space when the
// queue is empty so the backing array is reused rather than regrown.
func (c *Cond) enqueue(w waiter) {
	if c.head > 0 && c.head == len(c.waiters) {
		c.waiters = c.waiters[:0]
		c.head = 0
	}
	c.waiters = append(c.waiters, w)
}

// Wait parks p until Signal or Broadcast wakes it.
func (c *Cond) Wait(p *Proc) {
	c.enqueue(waiter{p, p.prepare()})
	p.park()
}

// WaitTimeout parks p until it is signalled or d elapses. It reports true if
// the process was signalled, false on timeout.
func (c *Cond) WaitTimeout(p *Proc, d time.Duration) bool {
	tok := p.prepare()
	c.enqueue(waiter{p, tok})
	timer := p.sim.atWake(p.sim.now.Add(d), p, tok)
	p.park()
	// If the timer is still pending we were woken by Signal before the
	// deadline: cancel it and report success. A fired (or recycled) timer
	// means the timeout won the race.
	return timer.Stop()
}

// Signal wakes the longest-waiting live process, if any. The wakeup is
// scheduled at the current instant so the signaller continues first (Mesa
// semantics). It reports whether a process was woken.
func (c *Cond) Signal() bool {
	for c.head < len(c.waiters) {
		w := c.waiters[c.head]
		c.waiters[c.head] = waiter{}
		c.head++
		if !w.p.awaits(w.tok) {
			continue // stale: timed out, killed, or rewoken elsewhere
		}
		w.p.sim.atWake(w.p.sim.now, w.p, w.tok)
		return true
	}
	if c.head > 0 {
		c.waiters = c.waiters[:0]
		c.head = 0
	}
	return false
}

// Broadcast wakes every waiting process in FIFO order.
func (c *Cond) Broadcast() int {
	n := 0
	for c.Signal() {
		n++
	}
	return n
}
