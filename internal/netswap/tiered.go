package netswap

import (
	"errors"
	"time"

	"nemesis/internal/obs"
	"nemesis/internal/sim"
	"nemesis/internal/stretchdrv"
	"nemesis/internal/vm"
)

// TieredOptions tunes the local/remote composition and its degradation
// behaviour.
type TieredOptions struct {
	// Deadline is the per-remote-operation latency budget; an operation
	// that errors or overruns it counts as a miss. Default 100 ms.
	Deadline time.Duration
	// MissBudget is how many consecutive misses trip degradation.
	// Default 3.
	MissBudget int
	// Cooldown is how long the backing stays on the local tier before
	// probing the remote again. Default 2 s.
	Cooldown time.Duration
	// RetryEvery paces re-attempts of remote reads that have no local
	// copy to fall back on (only the faulting domain sleeps). Default
	// 100 ms.
	RetryEvery time.Duration
}

// DefaultTieredOptions returns the defaults documented on TieredOptions.
func DefaultTieredOptions() TieredOptions {
	return TieredOptions{
		Deadline:   100 * time.Millisecond,
		MissBudget: 3,
		Cooldown:   2 * time.Second,
		RetryEvery: 100 * time.Millisecond,
	}
}

func (o *TieredOptions) fillDefaults() {
	d := DefaultTieredOptions()
	if o.Deadline <= 0 {
		o.Deadline = d.Deadline
	}
	if o.MissBudget < 1 {
		o.MissBudget = d.MissBudget
	}
	if o.Cooldown <= 0 {
		o.Cooldown = d.Cooldown
	}
	if o.RetryEvery <= 0 {
		o.RetryEvery = d.RetryEvery
	}
}

// TieredStats counts tier traffic and degradation events.
type TieredStats struct {
	LocalHits       int64 // reads served by the local tier
	RemoteReads     int64 // reads served by the remote tier
	Promotions      int64 // remote-read pages copied into the local tier
	PromoteSkips    int64 // promotions skipped (local tier full)
	Demotions       int64 // cleaned pages demoted to the remote tier
	LocalFallbacks  int64 // pages cleaned to the local tier while degraded
	DeadlineMisses  int64 // remote operations that errored or overran
	DegradedEntries int64 // times the backing fell over to the local tier
	ReadRetryWaits  int64 // sleeps waiting for a remote-only page
}

// TieredBacking composes a small fast local swap tier with the large remote
// tier. Cleaning demotes pages to the remote store (demote-on-clean) while
// the local tier caches a copy for as long as it has room; a fault that must
// read remotely promotes the page
// into the local tier so re-faults stay fast (promote-on-fault). When the
// remote misses its deadline budget the backing degrades: cleaning falls
// over to the local tier until a cooldown expires, so the domain keeps its
// paging QoS through a remote outage — and only a fault on a page whose sole
// copy is remote ever stalls, on the faulting domain's own process.
type TieredBacking struct {
	s       *sim.Simulator
	reg     *obs.Registry
	domName string
	local   *stretchdrv.SwapBacking
	remote  *RemoteBacking
	opt     TieredOptions

	misses        int
	degraded      bool
	degradedUntil sim.Time
	probing       bool // cooldown expired; next remote success restores

	Stats TieredStats

	cLocalHits, cRemoteReads, cPromotions *obs.Counter
	cDemotions, cFallbacks, cDegraded     *obs.Counter
	gDegraded                             *obs.Gauge
}

// NewTieredBacking composes local and remote. reg may be nil.
func NewTieredBacking(s *sim.Simulator, reg *obs.Registry, local *stretchdrv.SwapBacking, remote *RemoteBacking, domName string, opt TieredOptions) *TieredBacking {
	opt.fillDefaults()
	return &TieredBacking{
		s:            s,
		reg:          reg,
		domName:      domName,
		local:        local,
		remote:       remote,
		opt:          opt,
		cLocalHits:   reg.Counter("tier", "local_hits", domName),
		cRemoteReads: reg.Counter("tier", "remote_reads", domName),
		cPromotions:  reg.Counter("tier", "promotions", domName),
		cDemotions:   reg.Counter("tier", "demotions", domName),
		cFallbacks:   reg.Counter("tier", "local_fallbacks", domName),
		cDegraded:    reg.Counter("tier", "degraded_entries", domName),
		gDegraded:    reg.Gauge("tier", "degraded", domName),
	}
}

// Name implements stretchdrv.Backing.
func (t *TieredBacking) Name() string { return "tiered" }

// Local exposes the local tier.
func (t *TieredBacking) Local() *stretchdrv.SwapBacking { return t.local }

// Remote exposes the remote tier's client.
func (t *TieredBacking) Remote() *RemoteBacking { return t.remote }

// Degraded reports whether the backing is currently running on the local
// tier only.
func (t *TieredBacking) Degraded() bool { return t.degradedNow() }

// HasCopy implements stretchdrv.Backing.
func (t *TieredBacking) HasCopy(va vm.VA) bool {
	return t.local.HasCopy(va) || t.remote.HasCopy(va)
}

// degradedNow evaluates (and expires) the degradation state.
func (t *TieredBacking) degradedNow() bool {
	if t.degraded && t.s.Now() >= t.degradedUntil {
		// Cooldown over: probe the remote again.
		t.degraded = false
		t.misses = 0
		t.probing = true
		t.gDegraded.Set(0)
		t.reg.Audit(obs.AuditNetswapProbe, t.domName, "", 0, "cooldown expired")
	}
	return t.degraded
}

// noteRemote folds one remote operation's outcome into the deadline budget.
func (t *TieredBacking) noteRemote(start sim.Time, err error) {
	miss := err != nil || t.s.Now().Sub(start) > t.opt.Deadline
	if !miss {
		t.misses = 0
		if t.probing {
			t.probing = false
			t.reg.Audit(obs.AuditNetswapRestore, t.domName, "", 0, "remote healthy again")
		}
		return
	}
	t.Stats.DeadlineMisses++
	t.misses++
	if t.misses >= t.opt.MissBudget && !t.degraded {
		t.degraded = true
		t.degradedUntil = t.s.Now().Add(t.opt.Cooldown)
		t.Stats.DegradedEntries++
		t.cDegraded.Inc()
		t.gDegraded.Set(1)
		t.reg.Audit(obs.AuditNetswapDegrade, t.domName, "", 0, "deadline budget exhausted")
	}
}

// ReadPage implements stretchdrv.Backing: local tier first (fast), remote
// otherwise — retrying forever, because the page exists nowhere else. Only
// the faulting domain's process waits.
func (t *TieredBacking) ReadPage(p *sim.Proc, va vm.VA, buf []byte, sp *obs.Span) error {
	if t.local.HasCopy(va) {
		t.Stats.LocalHits++
		t.cLocalHits.Inc()
		return t.local.ReadPage(p, va, buf, sp)
	}
	for {
		start := t.s.Now()
		err := t.remote.ReadPage(p, va, buf, sp)
		t.noteRemote(start, err)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrRemoteTimeout) {
			return err // definitive server error; retrying cannot help
		}
		t.Stats.ReadRetryWaits++
		p.Sleep(t.opt.RetryEvery)
	}
	t.Stats.RemoteReads++
	t.cRemoteReads.Inc()
	t.promote(p, va, buf)
	return nil
}

// promote writes a remote-read page into the local tier so the next fault on
// it stays off the network. A full local tier just skips the promotion.
func (t *TieredBacking) promote(p *sim.Proc, va vm.VA, buf []byte) {
	if _, err := t.local.WritePages(p, []stretchdrv.DirtyPage{{VA: va, Data: buf}}, nil); err != nil {
		t.Stats.PromoteSkips++
		return
	}
	t.Stats.Promotions++
	t.cPromotions.Inc()
}

// WritePages implements stretchdrv.Backing. Healthy: the batch demotes to
// the remote tier (one merged RPC chain), and the local tier keeps a
// refreshed cache copy while it has room — so reads, and any later remote
// outage, stay local. Degraded (or on a remote failure): the batch falls
// over to the local tier and the remote copies are invalidated. A full
// local tier falls back to the remote as a last resort.
//
// The pages are written up to three times, with blocking calls in between,
// so the batch is snapshotted at entry and every tier writes the snapshot.
func (t *TieredBacking) WritePages(p *sim.Proc, pages []stretchdrv.DirtyPage, sp *obs.Span) (int, error) {
	pages = snapshot(pages)
	if !t.degradedNow() {
		start := t.s.Now()
		txns, err := t.remote.WritePages(p, pages, sp)
		t.noteRemote(start, err)
		if err == nil {
			t.Stats.Demotions += int64(len(pages))
			t.cDemotions.Add(int64(len(pages)))
			// Refresh the local cache copies. If the small tier is full the
			// whole batch must be dropped locally — a stale local copy would
			// otherwise shadow the newer remote one on the next fault.
			if _, lerr := t.local.WritePages(p, pages, nil); lerr != nil {
				for _, pg := range pages {
					t.local.Drop(pg.VA)
				}
			}
			return txns, nil
		}
	}
	txns, err := t.local.WritePages(p, pages, sp)
	if err == nil {
		for _, pg := range pages {
			t.remote.Invalidate(pg.VA)
		}
		t.Stats.LocalFallbacks += int64(len(pages))
		t.cFallbacks.Add(int64(len(pages)))
		return txns, nil
	}
	// Local tier exhausted: the remote is the only store left, degraded or
	// not — block (with retries) on the faulting domain's own process.
	txns2, err2 := t.remote.WritePages(p, pages, sp)
	if err2 == nil {
		for _, pg := range pages {
			t.local.Drop(pg.VA)
		}
		t.Stats.Demotions += int64(len(pages))
		t.cDemotions.Add(int64(len(pages)))
	}
	return txns + txns2, err2
}

// snapshot copies a cleaning batch's page views into one fresh buffer.
func snapshot(pages []stretchdrv.DirtyPage) []stretchdrv.DirtyPage {
	out := make([]stretchdrv.DirtyPage, len(pages))
	buf := make([]byte, len(pages)*vm.PageSize)
	for i, pg := range pages {
		data := buf[i*vm.PageSize : (i+1)*vm.PageSize]
		copy(data, pg.Data)
		out[i] = stretchdrv.DirtyPage{VA: pg.VA, Data: data}
	}
	return out
}
