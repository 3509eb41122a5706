package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// qrec is one event a queueHarness caused: its (t, seq) and what it does.
type qrec struct {
	t    Time
	seq  uint64
	cb   int    // callback id, or -1 for a process wakeup
	p    *Proc  // wakeup target
	tok  uint64 // wakeup token
	dead bool   // cancelled before it could fire
}

// qseen is one dispatch the harness saw: a callback running, or a process
// resuming from a park, as the n-th event the simulator dispatched.
type qseen struct {
	n   int64
	cb  int
	p   *Proc
	tok uint64
	now Time // the instant the callback or process observed
}

// qlog is one entry of a harness's log, in the order things happened: an
// event filed, an event cancelled, a dispatch seen, or a panic that
// reached the caller of Run.
type qlog struct {
	file, cancel *qrec
	seen         *qseen
	caught       string
}

// queueHarness performs seeded random scheduling operations on one simulator
// from callbacks and processes. It logs every event they file, with the
// (t, seq) it was given, every cancellation and every dispatch it sees.
// check replays the log through a reference queue that pops the pending
// event smallest by (t, seq), found by a plain scan.
type queueHarness struct {
	tb     testing.TB
	s      *Simulator
	rng    *rand.Rand
	left   int   // operations still to perform
	base   int64 // s.Dispatched() when the harness took over
	recs   map[uint64]*qrec
	log    []qlog
	timers []Timer // callback timers, for Stop
	cond   Cond
	procs  []*Proc
	nextCB int
	closed bool // Shutdown's unwinding dispatches no event
	// panicAt is the value of left at which act panics, in the callback or
	// process performing it; 0 means never.
	panicAt int
}

func newQueueHarness(tb testing.TB, s *Simulator, rng *rand.Rand, ops int) *queueHarness {
	return &queueHarness{tb: tb, s: s, rng: rng, left: ops, base: s.Dispatched(),
		recs: make(map[uint64]*qrec)}
}

func (d *queueHarness) add(r *qrec) {
	if old := d.recs[r.seq]; old != nil {
		d.tb.Fatalf("two events recorded with seq %d: %+v and %+v", r.seq, *old, *r)
	}
	d.recs[r.seq] = r
	d.log = append(d.log, qlog{file: r})
}

func (d *queueHarness) cancel(r *qrec) {
	r.dead = true
	d.log = append(d.log, qlog{cancel: r})
}

// sync records the pending events the harness has not yet seen filed: the
// wakeups Signal, Spawn and Kill queue, read off both lanes right after the
// call, before anything else can be dispatched. Any other event must have
// been recorded where it was filed.
func (d *queueHarness) sync() {
	visit := func(ev *event) {
		if ev.dead || d.recs[ev.seq] != nil {
			return
		}
		if ev.fn != nil || ev.tok != ev.p.wakeSeq {
			d.tb.Fatalf("unrecorded event at %v, seq %d", ev.t, ev.seq)
		}
		d.add(&qrec{t: ev.t, seq: ev.seq, cb: -1, p: ev.p, tok: ev.tok})
	}
	for i := 0; i < d.s.ready.n; i++ {
		visit(d.s.ready.at(i))
	}
	for _, ev := range d.s.events {
		visit(ev)
	}
}

// observe records a dispatch: the event just popped is the
// s.Dispatched()-th.
func (d *queueHarness) observe(o qseen) {
	if d.closed {
		return
	}
	o.n = d.s.Dispatched()
	o.now = d.s.Now()
	if d.s.chain > d.s.maxChain {
		d.tb.Fatalf("dispatch %d: chain of %d processes, bound %d", o.n, d.s.chain, d.s.maxChain)
	}
	d.log = append(d.log, qlog{seen: &o})
}

func (d *queueHarness) resumed(p *Proc) { d.observe(qseen{cb: -1, p: p, tok: p.wakeSeq}) }

// expectWake records the wakeup p's next park will file at t before the
// park, which may dispatch it at once: alloc draws the next seq, unless a
// donation for (p, t) replaces it.
func (d *queueHarness) expectWake(p *Proc, t Time) *qrec {
	t = max(t, d.s.now)
	seq := d.s.seq + 1
	if dw, ok := d.s.donations[p]; ok && dw.t == t {
		seq = dw.seq
	}
	r := &qrec{t: t, seq: seq, cb: -1, p: p, tok: p.wakeSeq + 1}
	d.add(r)
	return r
}

// delay draws an offset from now: mostly zero or a few microseconds, so
// same-instant ties abound, and sometimes in the past, which clamps to now.
func (d *queueHarness) delay() time.Duration {
	return time.Duration(d.rng.Intn(6)-2) * time.Microsecond
}

// schedule files a callback with At or After.
func (d *queueHarness) schedule() {
	id := d.nextCB
	d.nextCB++
	fn := func() {
		d.observe(qseen{cb: id})
		for k := 1 + d.rng.Intn(2); k > 0; k-- {
			d.act(nil)
		}
	}
	var tm Timer
	if d.rng.Intn(2) == 0 {
		tm = d.s.At(d.s.Now().Add(d.delay()), fn)
	} else {
		tm = d.s.After(d.delay(), fn)
	}
	t, seq, _ := tm.When()
	d.add(&qrec{t: t, seq: seq, cb: id})
	d.timers = append(d.timers, tm)
}

// spawn starts a process that performs operations until the budget runs out.
func (d *queueHarness) spawn() *Proc {
	p := d.s.Spawn("q", func(p *Proc) {
		defer func() {
			if p.killed {
				d.resumed(p) // the kill's wakeup unwinds the park
			}
		}()
		d.resumed(p)
		for d.left > 0 {
			d.act(p)
		}
	})
	d.procs = append(d.procs, p)
	d.sync()
	return p
}

// act performs one random operation. self is the process performing it, or nil
// for a callback, which cannot park.
func (d *queueHarness) act(self *Proc) {
	if d.left <= 0 {
		return
	}
	d.left--
	if d.panicAt > 0 && d.left == d.panicAt {
		panic(harnessPanic(d.left))
	}
	n := 6
	if self != nil {
		n = 10
	}
	switch d.rng.Intn(n) {
	case 0, 1:
		d.schedule()
	case 2:
		d.cond.Signal()
		d.sync()
	case 3:
		d.spawn()
	case 4:
		if v := d.procs[d.rng.Intn(len(d.procs))]; v != self {
			v.Kill()
			d.sync()
		}
	case 5:
		if len(d.timers) > 0 {
			tm := d.timers[d.rng.Intn(len(d.timers))]
			if _, seq, ok := tm.When(); ok && tm.Stop() {
				d.cancel(d.recs[seq])
			}
		}
	case 6:
		// Sleep(0) parks only behind a live event due now.
		if ev, _ := d.s.peekLive(); ev != nil && ev.t <= d.s.now {
			d.expectWake(self, d.s.now)
			self.Sleep(0)
			d.resumed(self)
		} else {
			self.Sleep(0)
		}
	case 7:
		dur := time.Duration(1+d.rng.Intn(3)) * time.Microsecond
		d.expectWake(self, d.s.now.Add(dur))
		self.Sleep(dur)
		d.resumed(self)
	case 8:
		d.cond.Wait(self)
		d.resumed(self)
	case 9:
		dur := time.Duration(d.rng.Intn(4)) * time.Microsecond
		timeout := d.expectWake(self, d.s.now.Add(dur))
		signalled := d.cond.WaitTimeout(self, dur)
		d.resumed(self)
		if signalled {
			d.cancel(timeout) // the Signal won, and WaitTimeout stopped the timer
		}
	}
}

// harnessPanic is what act panics with at panicAt: the operations left.
type harnessPanic int

// run starts procs processes and callbacks callbacks and runs to idle. A
// harnessPanic that reaches the caller of Run is logged and the run goes
// on; after it no process may be left dispatching. Any other panic fails
// the run.
func (d *queueHarness) run(procs, callbacks int) {
	for i := 0; i < procs; i++ {
		d.spawn()
	}
	for i := 0; i < callbacks; i++ {
		d.schedule()
	}
	for d.runOnce() {
		if d.s.chain != 0 || d.s.current != nil || d.s.panicked != nil {
			d.tb.Fatalf("after a panic: chain %d, current %v, panicked %v", d.s.chain, d.s.current, d.s.panicked)
		}
		for _, p := range d.procs {
			if p.dispatching {
				d.tb.Fatalf("after a panic: a process is still dispatching")
			}
		}
	}
}

// runOnce runs to idle, reporting whether a harnessPanic cut the run
// short.
func (d *queueHarness) runOnce() (caught bool) {
	defer func() {
		if r := recover(); r != nil {
			v := r
			if pp, ok := r.(*ProcPanic); ok {
				v = pp.Value // a process's: its stack differs between runs
			}
			if _, ok := v.(harnessPanic); !ok {
				panic(r)
			}
			d.log = append(d.log, qlog{caught: fmt.Sprintf("%T %v at %d", r, v, d.s.Dispatched())})
			caught = true
		}
	}()
	d.s.RunUntilIdle(1 << 20)
	return false
}

// check replays the log through the reference queue. Each dispatch the
// harness saw must be the reference's next pop, and Dispatched must count
// every pop. A pop the harness did not see must be a process wakeup, which
// a later park, a kill or the process's end had made stale; and no filed
// event may be left over.
func (d *queueHarness) check() {
	d.tb.Helper()
	var pending []*qrec
	n := d.base
	pop := func() *qrec {
		n++
		if len(pending) == 0 {
			d.tb.Fatalf("dispatch %d: reference queue is empty", n)
		}
		k := 0
		for i, r := range pending {
			if r.t < pending[k].t || r.t == pending[k].t && r.seq < pending[k].seq {
				k = i
			}
		}
		r := pending[k]
		pending = slices.Delete(pending, k, k+1)
		return r
	}
	unseen := func() {
		if r := pop(); r.cb >= 0 {
			d.tb.Fatalf("dispatch %d: callback %d (t %v, seq %d) ran unseen", n, r.cb, r.t, r.seq)
		}
	}
	for _, e := range d.log {
		switch {
		case e.file != nil:
			pending = append(pending, e.file)
		case e.caught != "":
		case e.cancel != nil:
			i := slices.Index(pending, e.cancel)
			if i < 0 {
				d.tb.Fatalf("cancelled event (t %v, seq %d) is not pending", e.cancel.t, e.cancel.seq)
			}
			pending = slices.Delete(pending, i, i+1)
		default:
			o := e.seen
			for n < o.n-1 {
				unseen()
			}
			if r := pop(); n != o.n || r.cb != o.cb || o.cb < 0 && (r.p != o.p || r.tok != o.tok) {
				d.tb.Fatalf("dispatch %d: ran {cb %d, tok %d}, reference pops %+v", o.n, o.cb, o.tok, *r)
			}
		}
	}
	for n < d.s.Dispatched() {
		unseen()
	}
	if len(pending) > 0 {
		d.tb.Fatalf("%d filed events never dispatched, first %+v", len(pending), *pending[0])
	}
}

// transcript renders the log and the simulator's final counts with
// processes by spawn index, so runs on two simulators compare.
func (d *queueHarness) transcript() []string {
	idx := map[*Proc]int{nil: -1}
	for i, p := range d.procs {
		idx[p] = i
	}
	var out []string
	for _, e := range d.log {
		switch {
		case e.file != nil:
			r := e.file
			out = append(out, fmt.Sprintf("file t=%d seq=%d cb=%d p=%d tok=%d", r.t, r.seq, r.cb, idx[r.p], r.tok))
		case e.cancel != nil:
			out = append(out, fmt.Sprintf("cancel seq=%d", e.cancel.seq))
		case e.caught != "":
			out = append(out, "caught "+e.caught)
		default:
			o := e.seen
			out = append(out, fmt.Sprintf("seen n=%d now=%d cb=%d p=%d tok=%d", o.n, o.now, o.cb, idx[o.p], o.tok))
		}
	}
	return append(out, fmt.Sprintf("end now=%d dispatched=%d seq=%d resumes=%d live=%d",
		d.s.now, d.s.Dispatched(), d.s.seq, d.s.resumes, d.s.Live()))
}

// shutdown releases the harness's processes without observing their unwind.
func (d *queueHarness) shutdown() {
	d.closed = true
	d.s.Shutdown()
}

// runQueueCase drives a simulator through ops random operations to idle
// and checks it, then forks it and checks the child the same way. The
// child starts with callbacks restored at the current instant and later
// under old seqs, and processes donated old seqs at the current instant,
// so that events due now reach both lanes.
func runQueueCase(tb testing.TB, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	parent := newQueueHarness(tb, New(seed), rng, ops)
	defer parent.shutdown()
	parent.run(1+rng.Intn(3), rng.Intn(4))
	parent.check()

	// Old seqs for the child: distinct, at or below the copied counter.
	old := make([]uint64, 0, len(parent.recs))
	for seq := range parent.recs {
		old = append(old, seq)
	}
	slices.Sort(old)
	rng.Shuffle(len(old), func(i, j int) { old[i], old[j] = old[j], old[i] })

	child := newQueueHarness(tb, parent.s.Fork(), rng, ops)
	defer child.shutdown()
	for i := 0; i < 3 && len(old) > 0; i++ {
		p := child.spawn()
		if rng.Intn(2) == 0 {
			child.s.DonateWakeSeq(p, child.s.now, old[0])
			old = old[1:]
		}
	}
	for k := rng.Intn(5); k > 0 && len(old) > 0; k-- {
		id := child.nextCB
		child.nextCB++
		at := child.s.now.Add(time.Duration(rng.Intn(2)) * time.Microsecond)
		child.s.RestoreAt(at, old[0], func() { child.observe(qseen{cb: id}); child.act(nil) })
		child.add(&qrec{t: at, seq: old[0], cb: id})
		old = old[1:]
	}
	child.run(0, rng.Intn(4))
	child.check()
}

// TestEventQueueMatchesReference drives seeded mixes of At and After at
// past, current and future instants, Timer.Stop, processes that Sleep(0),
// Sleep, Wait, WaitTimeout, Signal, Kill and Spawn, and on a forked
// simulator RestoreAt and DonateWakeSeq at the current instant, and holds
// every dispatch to the (t, seq) reference.
func TestEventQueueMatchesReference(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 50
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		runQueueCase(t, seed, 200)
	}
}

// FuzzEventQueue is TestEventQueueMatchesReference's harness under fuzzed
// seeds and operation counts.
func FuzzEventQueue(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42} {
		f.Add(seed, uint16(200))
	}
	f.Fuzz(func(t *testing.T, seed int64, ops uint16) {
		runQueueCase(t, seed, int(ops%500))
	})
}

// TestReadyLaneCapacity runs a long same-instant chain with a fixed backlog:
// 100 events due now, each of which files one more when it runs, for 100,000
// dispatches. The ready lane must reuse its storage, holding at most twice
// the backlog.
func TestReadyLaneCapacity(t *testing.T) {
	const backlog, total = 100, 100_000
	s := New(1)
	n := 0
	peak := 0
	var link func()
	link = func() {
		peak = max(peak, len(s.ready.buf))
		if n++; n <= total-backlog {
			s.At(s.Now(), link)
		}
	}
	for i := 0; i < backlog; i++ {
		s.At(s.Now(), link)
	}
	s.Run(s.Now())
	if n != total {
		t.Fatalf("ran %d links, want %d", n, total)
	}
	if peak > 2*backlog {
		t.Fatalf("ready lane grew to %d slots for a backlog of %d", peak, backlog)
	}
}

// TestSameInstantDispatchAllocatesNothing prices steady same-instant
// traffic: a callback chain filing each link at now, and two processes
// taking turns through Yield, each turn a wakeup due now.
func TestSameInstantDispatchAllocatesNothing(t *testing.T) {
	s := New(1)
	n := 0
	var link func()
	link = func() {
		if n--; n > 0 {
			s.At(s.Now(), link)
		}
	}
	c := new(Cond)
	for i := 0; i < 2; i++ {
		s.Spawn("yielder", func(p *Proc) {
			for {
				c.Wait(p)
				for k := 0; k < 100; k++ {
					p.Yield()
				}
			}
		})
	}
	s.Run(s.Now())
	allocs := testing.AllocsPerRun(50, func() {
		n = 1000
		s.At(s.Now(), link)
		c.Broadcast()
		s.Run(s.Now())
	})
	s.Shutdown()
	if allocs != 0 {
		t.Fatalf("same-instant dispatch allocated %v times per run", allocs)
	}
}
