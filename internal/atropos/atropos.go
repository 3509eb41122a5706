// Package atropos implements the accounting core of the Atropos scheduling
// algorithm used throughout Nemesis (the paper applies it both to CPU time
// and — in the USD — to disk time). It is an earliest-deadline-first
// algorithm with implicit deadlines: each client holds a QoS tuple
// (p, s, x, l) and is periodically allocated s time units with a deadline of
// period-start + p. Time actually consumed (including "lax" time — see
// below) is charged against the allocation; a client whose remaining time is
// exhausted waits for its next periodic allocation.
//
// Two refinements from the paper:
//
//   - Laxity (l): a client with no pending work may remain on the runnable
//     queue for up to l of continuous idleness, charged as if it were
//     working. This fixes the "short-block" problem for clients — like
//     pagers — that cannot pipeline requests.
//
//   - Roll-over accounting: a client is allowed to finish a transaction it
//     started with a reasonable amount of time remaining; if the transaction
//     overruns, the negative balance counts against the next allocation, so
//     a client cannot deterministically exceed its guarantee.
//
// The package is pure accounting: it never blocks and never reads a clock.
// Drivers (internal/usd, internal/cpu) own the event loop and tell the core
// what happened and when.
//
// # Indexed core
//
// The core scales to thousands of clients. Drivers (internal/cpu,
// internal/usd) mirror whether they have work queued for each client
// through SetReady, and pick through PickEDFReady and PickSlackReady, which
// consider only ready clients. EDF picks run off one (deadline, admission)
// min-heap of ready runnable clients, refreshes off a release calendar
// (calendar.go) and slack picks off a bitmap, instead of scanning the
// client slice.
//
// Ready-heap entries are invalidated lazily — a state change never touches
// the heap; stale entries are recognised and dropped when they surface at
// the top. Dropping is safe because, within one deadline epoch, eligibility
// only ever decreases: remain only shrinks outside Refresh, removal is
// permanent, a readiness flip bumps the client's generation, and the two
// operations that restore a client — Refresh and SetReady(c, true) — push
// a fresh entry. A heap that grows past twice the client count plus
// heapSlack is compacted: every entry that can never again speak for its
// client — its client removed, its deadline passed by, or its readiness
// generation superseded — is dropped at once, and the rest re-heapified.
// Picks depend only on the (deadline, seq) order of the entries that
// remain, so compaction changes no decision.
//
// Slack goes round-robin in client order, not by deadline, so its index is
// a bitmap over client positions with a bit per ready x=true client;
// PickSlackReady reads it a 64-bit word at a time from the cursor on.
//
// ReferenceCore (reference_test.go) retains the original linear
// implementation, with work availability passed to its picks as a
// predicate; the package tests co-run both over seeded random contract
// sets to pin the decisions of this implementation to the reference,
// operation by operation.
package atropos

import (
	"cmp"
	"container/heap"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"nemesis/internal/sim"
)

// Errors returned by Core.
var (
	ErrOvercommitted = errors.New("atropos: admission would exceed capacity")
	ErrBadQoS        = errors.New("atropos: invalid QoS parameters")
	ErrDuplicate     = errors.New("atropos: client name already registered")
	ErrUnknown       = errors.New("atropos: unknown client")
)

// State is a client's scheduling state.
type State uint8

const (
	// Runnable clients compete for service under EDF.
	Runnable State = iota
	// Waiting clients have exhausted their slice and await their next
	// periodic allocation.
	Waiting
	// Idle clients exhausted their laxity with no work pending; they are
	// ignored until their next periodic allocation (paper §6.7).
	Idle
)

func (s State) String() string {
	switch s {
	case Runnable:
		return "runnable"
	case Waiting:
		return "waiting"
	case Idle:
		return "idle"
	default:
		return fmt.Sprintf("state(%d)", s)
	}
}

// QoS is the (p, s, x, l) tuple from the paper: the client may perform
// transactions totalling at most S within every P, X marks eligibility for
// slack time, and L is the laxity value.
type QoS struct {
	P time.Duration // period
	S time.Duration // slice
	X bool          // eligible for slack time
	L time.Duration // laxity
}

// Share returns S/P as a fraction of the resource.
func (q QoS) Share() float64 { return float64(q.S) / float64(q.P) }

func (q QoS) validate() error {
	if q.P <= 0 || q.S <= 0 || q.S > q.P || q.L < 0 {
		return fmt.Errorf("%w: p=%v s=%v l=%v", ErrBadQoS, q.P, q.S, q.L)
	}
	return nil
}

// Client is one contracted consumer of the resource.
type Client struct {
	name string
	qos  QoS

	state       State
	remain      time.Duration // time left in the current period; may go negative
	deadline    sim.Time      // end of current period == next allocation instant
	periodStart sim.Time
	laxSpan     time.Duration // continuous workless time charged so far
	allocations int64         // periodic allocations granted
	charged     time.Duration // total time charged (work + lax)
	laxCharged  time.Duration // total lax time charged

	// Index bookkeeping (owned by Core).
	seq      uint64 // admission sequence number; EDF tie-break key
	idx      int    // position in Core.clients (slack round-robin order)
	removed  bool   // invalidates any readyq entries still referencing c
	ready    bool   // driver-reported work availability (SetReady)
	readyGen uint32 // bumped on every readiness flip; invalidates readyq entries

	// Rec is the driver's own record for this client (the USD's client
	// state, the CPU scheduler's waiter), set by the driver when it admits
	// the client, so that a pick leads to it without a lookup by name. The
	// core never reads it; Fork copies it as is, for the driver to re-point.
	Rec any
}

// Name returns the client's registration name.
func (c *Client) Name() string { return c.name }

// QoS returns the client's contract.
func (c *Client) QoS() QoS { return c.qos }

// State returns the scheduling state.
func (c *Client) State() State { return c.state }

// Remain returns the unconsumed allocation for the current period.
func (c *Client) Remain() time.Duration { return c.remain }

// Deadline returns the end of the client's current period.
func (c *Client) Deadline() sim.Time { return c.deadline }

// LaxBudget returns how much longer the client may stay runnable without
// pending work before being marked idle.
func (c *Client) LaxBudget() time.Duration {
	if b := c.qos.L - c.laxSpan; b > 0 {
		return b
	}
	return 0
}

// Allocations returns the number of periodic allocations granted so far.
func (c *Client) Allocations() int64 { return c.allocations }

// Charged returns total time charged to the client (work plus lax).
func (c *Client) Charged() time.Duration { return c.charged }

// LaxCharged returns total lax time charged to the client.
func (c *Client) LaxCharged() time.Duration { return c.laxCharged }

// qentry is a lazily-invalidated heap entry. An entry speaks for its client
// only while the client still matches the snapshot taken at push time: the
// deadline must be unchanged (Refresh advances it and pushes a replacement)
// and so must the readiness generation.
type qentry struct {
	deadline sim.Time
	seq      uint64
	gen      uint32 // readiness generation
	c        *Client
}

// entryHeap is a binary min-heap ordered by (deadline, admission sequence) —
// the same total order the linear scans realise via strict-< with
// admission-order iteration.
type entryHeap []qentry

func entryLess(a, b qentry) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	return a.seq < b.seq
}

func (h *entryHeap) push(e qentry) {
	if len(*h) == cap(*h) {
		// Double: past 256 entries append grows a slice by about 1.25×, so
		// a heap climbing to n entries would allocate about 5n of them.
		grown := make(entryHeap, len(*h), max(2*cap(*h), 8))
		copy(grown, *h)
		*h = grown
	}
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *entryHeap) pop() qentry {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = qentry{}
	q = q[:n]
	*h = q
	q.down(0)
	return top
}

// down sifts q[i] down to its place.
func (q entryHeap) down(i int) {
	n := len(q)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && entryLess(q[l], q[min]) {
			min = l
		}
		if r < n && entryLess(q[r], q[min]) {
			min = r
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
}

// heapSlack is the fixed part of the ready heap's size bound (see
// Core.pushReady).
const heapSlack = 64

// compact drops the entries that no longer speak for their client and
// re-heapifies the rest.
func (h *entryHeap) compact() {
	q := *h
	n := 0
	for i := range q {
		if current(&q[i]) {
			q[n] = q[i]
			n++
		}
	}
	clear(q[n:])
	q = q[:n]
	for i := n/2 - 1; i >= 0; i-- {
		q.down(i)
	}
	*h = q
}

// Core tracks a set of clients sharing one resource.
type Core struct {
	clients    []*Client
	byName     map[string]*Client
	capacity   float64 // admissible sum of S/P, normally 1.0
	contracted float64 // running sum of admitted shares
	slackIdx   int     // round-robin cursor for slack distribution
	nextSeq    uint64

	readyq  entryHeap // ready ∧ runnable clients by (deadline, seq); lazy
	cal     calendar  // every client, filed at its deadline
	granted []*Client // Refresh's result, reused across calls

	// slackBits has bit i set iff clients[i] is ready and has x = true: the
	// candidates of PickSlackReady, in round-robin order. It holds exactly
	// ceil(len(clients)/64) words and no bit at or beyond len(clients). QoS
	// is fixed at Admit, so x never changes under a set bit; SetReady and
	// Remove are the only writers.
	slackBits []uint64
}

// NewCore returns a Core admitting contracts totalling at most capacity
// (1.0 = the whole resource).
func NewCore(capacity float64) *Core {
	if capacity <= 0 {
		capacity = 1.0
	}
	return &Core{capacity: capacity, byName: make(map[string]*Client)}
}

// Contracted returns the sum of admitted shares.
func (co *Core) Contracted() float64 { return co.contracted }

// recontract recomputes the admitted-share sum by the same left fold the
// linear implementation used, keeping the float result bit-identical.
func (co *Core) recontract() {
	total := 0.0
	for _, c := range co.clients {
		total += c.qos.Share()
	}
	co.contracted = total
}

// Clients returns the registered clients in admission order.
func (co *Core) Clients() []*Client { return co.clients }

// Lookup returns the client with the given name, or nil.
func (co *Core) Lookup(name string) *Client { return co.byName[name] }

// Admit registers a client with the given contract, starting its first
// period at now. Admission fails if the aggregate share would exceed
// capacity (the same admission test the frames allocator applies to
// guaranteed frames).
func (co *Core) Admit(name string, q QoS, now sim.Time) (*Client, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	if co.Lookup(name) != nil {
		return nil, fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	if co.contracted+q.Share() > co.capacity+1e-9 {
		return nil, fmt.Errorf("%w: %.3f + %.3f > %.3f", ErrOvercommitted, co.contracted, q.Share(), co.capacity)
	}
	c := &Client{
		name:        name,
		qos:         q,
		state:       Runnable,
		remain:      q.S,
		periodStart: now,
		deadline:    now.Add(q.P),
		allocations: 1,
		seq:         co.nextSeq,
		idx:         len(co.clients),
	}
	if c.idx>>6 == len(co.slackBits) {
		co.slackBits = append(co.slackBits, 0)
	}
	co.nextSeq++
	co.clients = append(co.clients, c)
	co.byName[name] = c
	co.contracted += q.Share()
	co.cal.file(c)
	return c, nil
}

// Remove deregisters a client. Ready-heap entries referencing it go stale
// and are dropped lazily; so does its place in the calendar.
func (co *Core) Remove(name string) error {
	c := co.byName[name]
	if c == nil {
		return fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	c.removed = true
	co.cal.unfile(c)
	delete(co.byName, name)
	i := c.idx
	co.clients = append(co.clients[:i], co.clients[i+1:]...)
	// Every client after i moves down a slot, and its slack bit with it:
	// clear the bits from i on and set them again as the loop re-indexes.
	co.slackBits[i>>6] &= 1<<(i&63) - 1
	clear(co.slackBits[i>>6+1:])
	for ; i < len(co.clients); i++ {
		d := co.clients[i]
		d.idx = i
		if d.ready && d.qos.X {
			co.slackBits[i>>6] |= 1 << (i & 63)
		}
	}
	co.slackBits = co.slackBits[:(len(co.clients)+63)>>6]
	co.recontract()
	return nil
}

// Refresh grants periodic allocations to every client whose deadline has
// arrived, returning the clients that received one (in admission order).
// Unused positive balance does not accumulate; negative balance (roll-over)
// counts against the new slice. The returned slice is valid until the next
// Refresh, which reuses it.
func (co *Core) Refresh(now sim.Time) []*Client {
	granted := co.granted[:0]
	for {
		e := co.cal.first()
		if e == nil || e.t > now {
			break
		}
		heap.Pop(&co.cal.heap)
		for _, c := range e.clients {
			if c.removed || c.deadline != e.t {
				continue
			}
			// Catch up period boundaries without stacking slices.
			for c.deadline <= now {
				c.periodStart = c.deadline
				c.deadline = c.deadline.Add(c.qos.P)
			}
			carry := time.Duration(0)
			if c.remain < 0 {
				carry = c.remain
			}
			c.remain = c.qos.S + carry
			c.laxSpan = 0
			c.allocations++
			if c.state == Waiting || c.state == Idle {
				c.state = Runnable
			}
			co.cal.file(c)
			if c.ready && runnable(c) {
				co.pushReady(c)
			}
			granted = append(granted, c)
		}
		co.cal.recycle(e)
	}
	if len(granted) > 1 {
		// The calendar yields instant order, filing order within one; the
		// contract is admission order. Clients that share a period file in
		// admission order, so this is mostly a near-no-op sort.
		slices.SortFunc(granted, func(a, b *Client) int { return cmp.Compare(a.seq, b.seq) })
	}
	co.granted = granted
	return granted
}

// current reports whether e still holds its client's current deadline and
// readiness generation. Deadlines only advance, generations only grow and
// removal is permanent, so an entry that fails it never speaks for its
// client again.
func current(e *qentry) bool {
	return !e.c.removed && e.c.deadline == e.deadline && e.c.readyGen == e.gen
}

// pushReady adds c's entry for its current deadline and generation to the
// ready heap and, once the heap holds more than 2·len(clients) + heapSlack
// entries, compacts it to the current ones.
func (co *Core) pushReady(c *Client) {
	co.readyq.push(qentry{deadline: c.deadline, seq: c.seq, gen: c.readyGen, c: c})
	if len(co.readyq) > 2*len(co.clients)+heapSlack {
		co.readyq.compact()
	}
}

// runnable reports whether c may be given service now. A client may start
// a transaction with any time left, even if the transaction may overrun:
// the roll-over scheme charges the overrun to its next allocation.
func runnable(c *Client) bool { return c.state == Runnable && c.remain > 0 }

// SetReady records whether the driver has work queued for c. Readiness feeds
// PickEDFReady and PickSlackReady, which consider only ready clients. A flip
// of an x=true client flips its slack bit, and a newly ready runnable client
// enters the ready heap.
func (co *Core) SetReady(c *Client, ready bool) {
	if c.ready == ready || c.removed {
		return
	}
	c.ready = ready
	c.readyGen++
	if c.qos.X {
		co.slackBits[c.idx>>6] ^= 1 << (c.idx & 63)
	}
	if ready && runnable(c) {
		co.pushReady(c)
	}
}

// PickEDFReady returns the ready runnable client with the earliest
// deadline, or nil. Ties break by admission order, which is deterministic.
func (co *Core) PickEDFReady() *Client {
	for len(co.readyq) > 0 {
		// A current entry's client is ready: entries are pushed only for
		// ready clients, and a flip bumps the generation.
		e := &co.readyq[0]
		if current(e) && runnable(e.c) {
			return e.c
		}
		co.readyq.pop()
	}
	return nil
}

// PickSlackReady returns the next ready slack-eligible (x=true) client,
// distributing slack round-robin in admission order regardless of remaining
// allocation or state. It reads the slack bitmap: it takes the first set
// bit at or after the round-robin cursor (slackIdx mod n, as the cursor may
// point past the end after a Remove), wrapping to 0, and advances the
// cursor past it. That is exactly the client a linear scan from the cursor
// would stop at, found a word at a time.
func (co *Core) PickSlackReady() *Client {
	n := len(co.clients)
	if n == 0 {
		return nil
	}
	start := co.slackIdx % n
	w := start >> 6
	i := -1
	if word := co.slackBits[w] >> (start & 63); word != 0 {
		i = start + bits.TrailingZeros64(word)
	} else {
		// Words after the cursor's, then from 0 round to the cursor's own
		// word again, whose bits below the cursor are the last candidates.
		for k := 1; k <= len(co.slackBits); k++ {
			wk := (w + k) % len(co.slackBits)
			if word := co.slackBits[wk]; word != 0 {
				i = wk<<6 + bits.TrailingZeros64(word)
				break
			}
		}
	}
	if i < 0 {
		return nil
	}
	co.slackIdx = (i + 1) % n
	return co.clients[i]
}

// Charge debits d of real service time from c. If the balance reaches zero
// or below (a roll-over overrun), the client waits for its next allocation.
func (co *Core) Charge(c *Client, d time.Duration) {
	c.remain -= d
	c.charged += d
	c.laxSpan = 0
	if c.remain <= 0 {
		c.state = Waiting
	}
}

// ChargeLax debits d of lax (workless runnable) time from c. Exhausting the
// slice sends the client to Waiting; exhausting the laxity with slice
// remaining parks it Idle until the next allocation.
func (co *Core) ChargeLax(c *Client, d time.Duration) {
	c.remain -= d
	c.charged += d
	c.laxCharged += d
	c.laxSpan += d
	switch {
	case c.remain <= 0:
		c.state = Waiting
	case c.laxSpan >= c.qos.L:
		c.state = Idle
	}
}

// NoteWork resets c's continuous lax span: pending work has arrived. An Idle
// client stays idle (the paper ignores it until its next allocation).
func (co *Core) NoteWork(c *Client) { c.laxSpan = 0 }

// Idle parks a runnable client until its next allocation without charging
// it — the behaviour of the early USD scheduler the paper describes, used
// when the laxity mechanism is disabled.
func (co *Core) Idle(c *Client) {
	if c.state == Runnable {
		c.state = Idle
	}
}

// NextBoundary returns the earliest deadline over all clients — the next
// instant at which Refresh will grant an allocation — or ok=false if there
// are no clients.
func (co *Core) NextBoundary() (sim.Time, bool) {
	if e := co.cal.first(); e != nil {
		return e.t, true
	}
	return 0, false
}
