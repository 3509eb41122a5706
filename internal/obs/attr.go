package obs

import (
	"fmt"
	"io"
	"time"

	"nemesis/internal/sim"
)

// AttrState is the coarse classification of one simulated instant of one
// domain's existence. Because the simulator is deterministic and every state
// transition is an exact event (a fault span hop, a CPU grant, a kill), the
// attribution is exact, not sampled: the per-state accounts of a domain sum
// to its elapsed simulated lifetime to the nanosecond, an invariant
// CheckConservation asserts.
type AttrState uint8

const (
	// AttrIdle: no thread runnable, no fault in flight.
	AttrIdle AttrState = iota
	// AttrRunnable: a thread wants the CPU but another domain holds it.
	AttrRunnable
	// AttrRunning: a thread is consuming its CPU quantum.
	AttrRunning
	// AttrFault: blocked on the domain's own fault path; the Hop field of
	// the account names where along the path (mmentry, driver, usd.queue,
	// usd.read, net.out, remote.store, ...) the time went.
	AttrFault
)

// AttrStates lists the states in export order.
var AttrStates = [...]AttrState{AttrRunning, AttrRunnable, AttrFault, AttrIdle}

func (s AttrState) String() string {
	switch s {
	case AttrIdle:
		return "idle"
	case AttrRunnable:
		return "runnable-waiting-cpu"
	case AttrRunning:
		return "running"
	case AttrFault:
		return "blocked-fault"
	}
	return fmt.Sprintf("state%d", int(s))
}

// AttrAccount is one (state, hop) bucket of a domain's time. Hop is empty
// except for AttrFault, where it names the fault-path hop the domain was
// blocked under.
type AttrAccount struct {
	State AttrState     `json:"state"`
	Hop   string        `json:"hop,omitempty"`
	Total time.Duration `json:"total_ns"`
}

// Attribution is the per-domain sim-time accounting state machine. It is
// driven by the registry's fault spans (StartSpan/BeginHop/SplitHop/Finish)
// and by the CPU scheduler's grant/release events, so instrumented code
// needs no extra call sites. Each domain's account lives in a dense table
// indexed by its number, and a span carries its domain's account from
// StartSpan to Finish. All methods are safe on a nil receiver.
type Attribution struct {
	reg   *Registry
	accts table[DomainAttr] // by domain number; tracked entries have a non-nil a
	order []DomainNum       // tracked domains, first-tracked order
}

// Track returns (creating at the current instant if needed) the accounting
// state for a domain. Conservation is measured from the instant of first
// tracking, which the system facade arranges to be domain admission.
func (a *Attribution) Track(dom DomainNum) *DomainAttr {
	if a == nil {
		return nil
	}
	d := a.accts.at(uint32(dom))
	if d.a == nil {
		now := a.reg.now()
		*d = DomainAttr{a: a, dom: dom, start: now, since: now, accounts: make([]AttrAccount, 0, attrAccountCap)}
		a.order = append(a.order, dom)
	}
	return d
}

// tracked returns a tracked domain's account, or nil.
func (a *Attribution) tracked(dom DomainNum) *DomainAttr {
	if d := a.accts.get(uint32(dom)); d != nil && d.a != nil {
		return d
	}
	return nil
}

// Restart discards every domain's accrued accounts and restarts the
// conservation clock at the current instant, keeping each domain's live
// state (open fault spans, threads running or waiting for the CPU). A
// harness calls it at the first instant of its measured window, so profiles
// cover that window and not the initialisation before it. Safe on nil.
func (a *Attribution) Restart() {
	if a == nil {
		return
	}
	now := a.reg.now()
	for _, dom := range a.order {
		d := a.accts.at(uint32(dom))
		d.accounts = d.accounts[:0]
		d.start, d.since = now, now
	}
}

// Domains returns the tracked domain names in first-tracked order.
func (a *Attribution) Domains() []string {
	if a == nil || len(a.order) == 0 {
		return nil
	}
	out := make([]string, len(a.order))
	for i, dom := range a.order {
		out[i] = a.reg.doms[dom]
	}
	return out
}

// DomainAttr accounts one domain's simulated time. Exactly one (state, hop)
// bucket is accruing at any instant; every event closes the open interval
// into its bucket and reclassifies.
type DomainAttr struct {
	a     *Attribution
	dom   DomainNum
	start sim.Time // tracking began
	since sim.Time // current interval began

	curState AttrState
	curHop   string

	running int     // threads holding the CPU
	waiting int     // threads waiting for the CPU
	open    []*Span // open fault spans, oldest first
	killed  bool

	// accounts is a small linear-scan table, kept in first-seen order for
	// deterministic export. Track sizes it for attrAccountCap buckets.
	accounts []AttrAccount
}

// attrAccountCap is the bucket capacity Track gives a domain: the most
// buckets a domain of a 1×5000×6 cluster run accrues. One that pages to a
// remote store accrues 8: running, runnable, and blocked under dispatch,
// mmentry, queue, net.out, remote.store and net.back. Its driver, evict and
// map hops take no simulated time, so they accrue nothing. A Fig. 7 domain
// accrues 7.
const attrAccountCap = 8

// Name returns the domain name.
func (d *DomainAttr) Name() string {
	if d == nil {
		return ""
	}
	return d.a.reg.doms[d.dom]
}

// add accrues dt into the (state, hop) bucket.
func (d *DomainAttr) add(state AttrState, hop string, dt time.Duration) {
	for i := range d.accounts {
		if d.accounts[i].State == state && d.accounts[i].Hop == hop {
			d.accounts[i].Total += dt
			return
		}
	}
	d.accounts = append(d.accounts, AttrAccount{State: state, Hop: hop, Total: dt})
}

// classify derives the current state from the counters. A fault in flight
// dominates (the paper's accounting: the domain is paying for its own
// fault), then running, then runnable, then idle.
func (d *DomainAttr) classify() (AttrState, string) {
	if d.killed {
		return AttrIdle, ""
	}
	if len(d.open) > 0 {
		s := d.open[0]
		if n := len(s.hops); n > 0 {
			return AttrFault, s.hops[n-1].Name
		}
		return AttrFault, "dispatch"
	}
	if d.running > 0 {
		return AttrRunning, ""
	}
	if d.waiting > 0 {
		return AttrRunnable, ""
	}
	return AttrIdle, ""
}

// retarget closes the open interval at instant at (clamped so accounting
// never runs backwards; at may lie in the past for retroactively recorded
// hop splits such as USD service times) and switches to the freshly
// classified bucket. A no-op when the classification is unchanged: the open
// interval simply keeps accruing.
func (d *DomainAttr) retarget(at sim.Time) {
	state, hop := d.classify()
	if state == d.curState && hop == d.curHop {
		return
	}
	if at < d.since {
		at = d.since
	}
	if dt := at.Sub(d.since); dt > 0 {
		d.add(d.curState, d.curHop, dt)
	}
	d.since = at
	d.curState, d.curHop = state, hop
}

// CPUWait records a thread joining the CPU queue. Safe on nil.
func (d *DomainAttr) CPUWait() {
	if d == nil {
		return
	}
	d.waiting++
	d.retarget(d.a.reg.now())
}

// CPURun records the scheduler granting the CPU to a waiting thread.
func (d *DomainAttr) CPURun() {
	if d == nil {
		return
	}
	d.waiting--
	d.running++
	d.retarget(d.a.reg.now())
}

// CPUYield records the thread releasing the CPU at the end of a quantum.
func (d *DomainAttr) CPUYield() {
	if d == nil {
		return
	}
	d.running--
	d.retarget(d.a.reg.now())
}

// spanStarted registers a newly opened fault span and hands it its
// domain's account.
func (a *Attribution) spanStarted(s *Span) {
	if a == nil {
		return
	}
	d := a.Track(s.dom)
	d.open = append(d.open, s)
	s.acct = d
	d.retarget(a.reg.now())
}

// spanHop reclassifies after a hop change at instant at (which may lie in
// the past when the span recorded a retroactive split).
func (d *DomainAttr) spanHop(at sim.Time) {
	if d == nil {
		return
	}
	d.retarget(at)
}

// spanFinished removes a finished fault span.
func (d *DomainAttr) spanFinished(s *Span) {
	if d == nil {
		return
	}
	for i, o := range d.open {
		if o == s {
			d.open = append(d.open[:i], d.open[i+1:]...)
			break
		}
	}
	d.retarget(d.a.reg.now())
}

// DomainKilled finalises a killed domain's accounting: its unwinding
// threads and abandoned fault spans will never report back, so the counters
// are cleared and the domain accrues idle time from the kill instant on.
func (a *Attribution) DomainKilled(dom DomainNum) {
	if a == nil {
		return
	}
	d := a.tracked(dom)
	if d == nil || d.killed {
		return
	}
	now := a.reg.now()
	d.retarget(now) // close the pre-kill interval under the old state
	d.killed = true
	d.running, d.waiting, d.open = 0, 0, nil
	d.retarget(now)
}

// StateTotal returns the domain's accrued time in one state (all hops
// summed), including the currently open interval. Safe on nil.
func (d *DomainAttr) StateTotal(state AttrState) time.Duration {
	if d == nil {
		return 0
	}
	var sum time.Duration
	for _, acc := range d.accounts {
		if acc.State == state {
			sum += acc.Total
		}
	}
	if d.curState == state {
		sum += d.a.reg.now().Sub(d.since)
	}
	return sum
}

// DomainProfile is a snapshot of one domain's attribution, with the open
// interval folded in: the account totals sum exactly to End-Start.
type DomainProfile struct {
	Domain   string        `json:"domain"`
	Start    sim.Time      `json:"start_ns"`
	End      sim.Time      `json:"end_ns"`
	Accounts []AttrAccount `json:"accounts"`
}

// Elapsed returns the profiled lifetime.
func (p *DomainProfile) Elapsed() time.Duration { return p.End.Sub(p.Start) }

// Total sums the accounts of one state across hops.
func (p *DomainProfile) Total(state AttrState) time.Duration {
	var sum time.Duration
	for _, acc := range p.Accounts {
		if acc.State == state {
			sum += acc.Total
		}
	}
	return sum
}

// Share returns the fraction of the lifetime spent in one state.
func (p *DomainProfile) Share(state AttrState) float64 {
	el := p.Elapsed()
	if el <= 0 {
		return 0
	}
	return float64(p.Total(state)) / float64(el)
}

// profile snapshots one domain at the current instant.
func (d *DomainAttr) profile(now sim.Time) DomainProfile {
	p := DomainProfile{Domain: d.Name(), Start: d.start, End: now}
	p.Accounts = make([]AttrAccount, len(d.accounts))
	copy(p.Accounts, d.accounts)
	if dt := now.Sub(d.since); dt > 0 {
		found := false
		for i := range p.Accounts {
			if p.Accounts[i].State == d.curState && p.Accounts[i].Hop == d.curHop {
				p.Accounts[i].Total += dt
				found = true
				break
			}
		}
		if !found {
			p.Accounts = append(p.Accounts, AttrAccount{State: d.curState, Hop: d.curHop, Total: dt})
		}
	}
	return p
}

// Profiles snapshots every tracked domain in first-tracked order.
func (a *Attribution) Profiles() []DomainProfile {
	if a == nil {
		return nil
	}
	now := a.reg.now()
	out := make([]DomainProfile, 0, len(a.order))
	for _, dom := range a.order {
		out = append(out, a.accts.at(uint32(dom)).profile(now))
	}
	return out
}

// Profile snapshots one domain, or returns false if it is not tracked.
func (a *Attribution) Profile(domain string) (DomainProfile, bool) {
	if a == nil {
		return DomainProfile{}, false
	}
	dom, ok := a.reg.domIdx[domain]
	if !ok {
		return DomainProfile{}, false
	}
	d := a.tracked(dom)
	if d == nil {
		return DomainProfile{}, false
	}
	return d.profile(a.reg.now()), true
}

// CheckConservation asserts the invariant that makes the attribution exact:
// for every domain, closed accounts plus the open interval equal the elapsed
// simulated time since tracking began, to the nanosecond. It returns the
// first violation found, or nil.
func (a *Attribution) CheckConservation() error {
	if a == nil {
		return nil
	}
	now := a.reg.now()
	for _, dom := range a.order {
		d := a.accts.at(uint32(dom))
		var sum time.Duration
		for _, acc := range d.accounts {
			if acc.Total < 0 {
				return fmt.Errorf("obs: attribution for %q: negative account %s/%s = %v", d.Name(), acc.State, acc.Hop, acc.Total)
			}
			sum += acc.Total
		}
		sum += now.Sub(d.since)
		if elapsed := now.Sub(d.start); sum != elapsed {
			return fmt.Errorf("obs: attribution for %q does not conserve time: accounts sum to %v, elapsed %v (diff %v)",
				d.Name(), sum, elapsed, elapsed-sum)
		}
	}
	return nil
}

// WriteFolded renders the attribution as folded stacks — one line per
// account, `domain;state[;hop] microseconds` — the input format of standard
// flamegraph and speedscope tools. Domains appear in first-tracked order and
// accounts in first-accrual order, both deterministic for a deterministic
// run, so the output is byte-identical however the run was scheduled.
func (a *Attribution) WriteFolded(w io.Writer) error {
	if a == nil {
		return nil
	}
	for _, p := range a.Profiles() {
		for _, acc := range p.Accounts {
			var err error
			if acc.Hop != "" {
				_, err = fmt.Fprintf(w, "%s;%s;%s %d\n", p.Domain, acc.State, acc.Hop, acc.Total.Microseconds())
			} else {
				_, err = fmt.Fprintf(w, "%s;%s %d\n", p.Domain, acc.State, acc.Total.Microseconds())
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}
