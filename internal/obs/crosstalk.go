package obs

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"time"

	"nemesis/internal/sim"
)

// DomainSample is one domain's cumulative activity, read by the crosstalk
// monitor each period. All fields are running totals; the monitor differences
// successive samples to obtain per-window rates.
type DomainSample struct {
	Dom         DomainNum // the domain's number in the monitor's registry
	Faults      int64     // cumulative faults dispatched
	Progress    int64     // cumulative useful-work units (e.g. accesses completed)
	Revocations int64     // cumulative frames revoked from the domain
	// Order is the domain's stable processing rank (registration order),
	// dense from 0. The monitor keeps the domain's history at this index
	// and processes each window's domains sorted by it, so every source
	// must set it, one that reports every domain included.
	Order int64
}

// Pressure is the system-wide memory pressure at a sampling instant.
type Pressure struct {
	FreeFrames int
}

// CrosstalkConfig tunes the monitor.
type CrosstalkConfig struct {
	// Period between samples (simulated time).
	Period time.Duration
	// Baseline is how many prior windows form the trailing-mean baseline.
	Baseline int
	// DegradeFrac: a domain is a victim when its progress rate falls below
	// DegradeFrac × its baseline progress rate.
	DegradeFrac float64
	// SurgeFrac: a domain is a suspect when its fault rate exceeds
	// SurgeFrac × its baseline fault rate.
	SurgeFrac float64
}

// DefaultCrosstalkConfig returns the defaults: 1 s windows, a 4-window
// baseline, victim below 70% of baseline, suspect above 150% of baseline.
func DefaultCrosstalkConfig() CrosstalkConfig {
	return CrosstalkConfig{
		Period:      time.Second,
		Baseline:    4,
		DegradeFrac: 0.7,
		SurgeFrac:   1.5,
	}
}

func (c *CrosstalkConfig) fillDefaults() {
	d := DefaultCrosstalkConfig()
	if c.Period <= 0 {
		c.Period = d.Period
	}
	if c.Baseline < 1 {
		c.Baseline = d.Baseline
	}
	if c.DegradeFrac <= 0 {
		c.DegradeFrac = d.DegradeFrac
	}
	if c.SurgeFrac <= 0 {
		c.SurgeFrac = d.SurgeFrac
	}
}

// Flag records one detected crosstalk window: while the suspect domain's
// fault rate surged, the victim domain's progress fell below its baseline.
// In a correctly firewalled self-paging system flags should stay rare even
// under memory pressure; a burst of them is the live counterpart of a
// trace.Log.ValidateGuarantees violation.
type Flag struct {
	At              sim.Time      `json:"at_ns"`
	Window          time.Duration `json:"window_ns"`
	Victim          string        `json:"victim"`
	Suspect         string        `json:"suspect"`
	VictimRate      float64       `json:"victim_progress_per_s"`
	VictimBaseline  float64       `json:"victim_baseline_per_s"`
	SuspectRate     float64       `json:"suspect_faults_per_s"`
	SuspectBaseline float64       `json:"suspect_baseline_per_s"`
	FreeFrames      int           `json:"free_frames"`
}

func (r *Registry) addFlag(f Flag) {
	if r == nil {
		return
	}
	r.flags = append(r.flags, f)
	r.Audit(AuditCrosstalk, f.Victim, f.Suspect, 0,
		fmt.Sprintf("victim %.1f/s (base %.1f/s), suspect faults %.1f/s (base %.1f/s)",
			f.VictimRate, f.VictimBaseline, f.SuspectRate, f.SuspectBaseline))
}

// Flags returns all crosstalk flags recorded so far.
func (r *Registry) Flags() []Flag {
	if r == nil {
		return nil
	}
	return r.flags
}

// WriteFlagsTSV renders the crosstalk flags as TSV.
func (r *Registry) WriteFlagsTSV(w io.Writer) error {
	if r == nil {
		return nil
	}
	if _, err := fmt.Fprintln(w, "at_s\twindow_ms\tvictim\tsuspect\tvictim_per_s\tvictim_base_per_s\tsuspect_faults_per_s\tsuspect_base_per_s\tfree_frames"); err != nil {
		return err
	}
	for _, f := range r.flags {
		if _, err := fmt.Fprintf(w, "%.3f\t%.1f\t%s\t%s\t%.2f\t%.2f\t%.2f\t%.2f\t%d\n",
			f.At.Seconds(), float64(f.Window)/1e6, escapeTSV(f.Victim), escapeTSV(f.Suspect),
			f.VictimRate, f.VictimBaseline, f.SuspectRate, f.SuspectBaseline, f.FreeFrames); err != nil {
			return err
		}
	}
	return nil
}

// domainHistory is the monitor's per-domain trailing state.
type domainHistory struct {
	prev     DomainSample
	havePrev bool
	progress []float64 // recent per-window progress rates (per second)
	faults   []float64 // recent per-window fault rates (per second)
	lastTick int64     // tick at which this domain was last processed
	sampled  int64     // latest tick whose sample reported this domain

	// gProgress and gFault publish the rates, created the first time the
	// domain is rated; cRevoked counts revocations, created at the first.
	gProgress, gFault *Gauge
	cRevoked          *Counter
}

// hot reports whether any baseline window still carries activity; a cold
// (all-zero) history can neither make the domain a victim (zero progress
// baseline) nor a suspect (zero fault rate and baseline), so cold domains
// are safe to skip entirely.
func (h *domainHistory) hot() bool {
	for _, x := range h.progress {
		if x != 0 {
			return true
		}
	}
	for _, x := range h.faults {
		if x != 0 {
			return true
		}
	}
	return false
}

// CrosstalkMonitor periodically samples per-domain activity and global frame
// pressure, publishes the rates as gauges, and flags windows in which one
// domain's fault surge coincides with another's progress collapse. All
// scheduling is on the simulator, so monitored runs stay deterministic.
type CrosstalkMonitor struct {
	reg *Registry
	s   *sim.Simulator
	cfg CrosstalkConfig

	// sample returns the cumulative activity of at least every domain that
	// changed since the last call, and the current memory pressure.
	sample func() ([]DomainSample, Pressure)
	// cooling lists, by Order, the recently active domains the monitor
	// keeps processing itself until their baselines decay to zero.
	cooling []int64

	// Per-window scratch, reused so that a steady window allocates nothing.
	merged []DomainSample
	rates  []windowRates

	hist    table[domainHistory] // by DomainSample.Order
	gFree   *Gauge               // created on the first window
	timer   sim.Timer
	running bool
	ticks   int64
	lastAt  sim.Time // instant of the last completed sample
}

// NewCrosstalkMonitor builds a monitor; call Start to begin sampling. The
// sample function needs to return only the domains whose counters moved
// since the previous call (plus newly registered domains, which seed their
// baselines), so per window the monitor works in proportion to the
// *active* domains, not the admitted ones: the property that lets
// monitoring scale to thousands of mostly idle domains. A source may
// return more, up to every domain.
//
// Detection equals a scan of every domain: a domain that stops appearing
// keeps being processed with zero rates ("cooling") until its baseline
// windows are all zero, at which point it can no longer be a victim (zero
// progress baseline) or a suspect (zero fault rate and baseline) and is
// dropped; if it reactivates, its history is first zero-padded with the
// windows it missed (capped at the baseline depth), restoring exactly the
// state a full scan would hold. The only observable difference is that
// rate gauges are not created for domains that were never active.
//
// DomainSample.Order carries each domain's registration rank, and the
// monitor processes the union of sampled and cooling domains sorted by it,
// preserving the full scan's tie-breaks; it is also the index of the
// domain's history, so a window finds each domain without a name. The
// monitor copies the samples out before it returns, so the source may reuse
// its slice on the next call.
func NewCrosstalkMonitor(reg *Registry, s *sim.Simulator, cfg CrosstalkConfig, sample func() ([]DomainSample, Pressure)) *CrosstalkMonitor {
	cfg.fillDefaults()
	return &CrosstalkMonitor{reg: reg, s: s, cfg: cfg, sample: sample}
}

// Start schedules the first sampling tick one period from now. Safe on a
// nil receiver (telemetry disabled).
func (m *CrosstalkMonitor) Start() {
	if m == nil || m.running || m.reg == nil || m.s == nil || m.sample == nil {
		return
	}
	m.running = true
	m.lastAt = m.s.Now()
	m.timer = m.s.After(m.cfg.Period, m.tick)
}

// Stop cancels future sampling and flushes the trailing partial window, so
// activity between the last full tick and run end is still rated and can
// still raise flags (previously it was silently dropped).
func (m *CrosstalkMonitor) Stop() {
	if m == nil || !m.running {
		return
	}
	m.running = false
	m.timer.Stop()
	m.flush()
}

// flush processes the partial window between the last completed sample and
// now. A zero-length window is skipped (nothing elapsed to rate).
func (m *CrosstalkMonitor) flush() {
	elapsed := m.s.Now().Sub(m.lastAt)
	if elapsed <= 0 {
		return
	}
	m.sampleWindow(elapsed.Seconds())
}

// Ticks returns how many sampling windows have completed.
func (m *CrosstalkMonitor) Ticks() int64 {
	if m == nil {
		return 0
	}
	return m.ticks
}

// Flags returns the flags recorded so far (convenience for tests).
func (m *CrosstalkMonitor) Flags() []Flag {
	if m == nil {
		return nil
	}
	return m.reg.Flags()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// windowRates holds one domain's rates for the just-closed window.
type windowRates struct {
	dom          DomainNum
	progressRate float64
	faultRate    float64
	progressBase float64
	faultBase    float64
	baselineOK   bool // enough history to judge
}

func (m *CrosstalkMonitor) tick() {
	if !m.running {
		return
	}
	m.sampleWindow(m.cfg.Period.Seconds())
	if m.running {
		m.timer = m.s.After(m.cfg.Period, m.tick)
	}
}

// withCooling merges the cooling set into a copy of the changed set —
// synthesizing a no-change sample from each cooling domain's previous
// totals — and restores the stable processing order. The result is
// m.merged, valid until the next call.
func (m *CrosstalkMonitor) withCooling(changed []DomainSample) []DomainSample {
	merged := append(slices.Grow(m.merged[:0], len(changed)+len(m.cooling)), changed...)
	for i := range changed {
		m.hist.at(uint32(changed[i].Order)).sampled = m.ticks
	}
	for _, order := range m.cooling {
		if h := m.hist.at(uint32(order)); h.sampled != m.ticks {
			merged = append(merged, h.prev)
		}
	}
	slices.SortFunc(merged, func(a, b DomainSample) int { return cmp.Compare(a.Order, b.Order) })
	m.merged = merged
	return merged
}

// slide appends x to a baseline window of at most n rates. The window gets
// its full capacity on first use and, once full, slides in place: the
// oldest rate drops off the front.
func slide(w []float64, x float64, n int) []float64 {
	switch {
	case w == nil:
		w = make([]float64, 0, n)
	case len(w) == n:
		copy(w, w[1:])
		w = w[:n-1]
	}
	return append(w, x)
}

// sampleWindow closes one sampling window of the given length (normally a
// full period; the trailing flush passes the partial remainder).
func (m *CrosstalkMonitor) sampleWindow(secs float64) {
	samples, pressure := m.sample()
	m.ticks++
	m.lastAt = m.s.Now()
	samples = m.withCooling(samples)

	if m.gFree == nil {
		m.gFree = m.reg.gaugeAt(m.reg.internFam("crosstalk", "free_frames"), systemDomain)
	}
	m.gFree.Set(int64(pressure.FreeFrames))

	rates := slices.Grow(m.rates[:0], len(samples))
	cooling := m.cooling[:0] // rebuilt from this window's processed domains
	for _, s := range samples {
		h := m.hist.at(uint32(s.Order))
		if !h.havePrev {
			h.prev = s
			h.havePrev = true
			h.lastTick = m.ticks
			continue
		}
		// Zero-pad the windows this domain sat out (a full scan would have
		// appended a zero rate for each); more than Baseline of them is
		// indistinguishable from exactly Baseline.
		if missed := m.ticks - 1 - h.lastTick; missed > 0 {
			pad := int(missed)
			if pad > m.cfg.Baseline {
				pad = m.cfg.Baseline
			}
			for i := 0; i < pad; i++ {
				h.progress = slide(h.progress, 0, m.cfg.Baseline)
				h.faults = slide(h.faults, 0, m.cfg.Baseline)
			}
		}
		h.lastTick = m.ticks
		pr := float64(s.Progress-h.prev.Progress) / secs
		fr := float64(s.Faults-h.prev.Faults) / secs
		rv := s.Revocations - h.prev.Revocations
		h.prev = s

		if h.gProgress == nil {
			h.gProgress = m.reg.gaugeAt(m.reg.internFam("crosstalk", "progress_rate"), s.Dom)
			h.gFault = m.reg.gaugeAt(m.reg.internFam("crosstalk", "fault_rate"), s.Dom)
		}
		h.gProgress.Set(int64(pr))
		h.gFault.Set(int64(fr))
		if rv > 0 {
			if h.cRevoked == nil {
				h.cRevoked = m.reg.counterAt(m.reg.internFam("crosstalk", "revocations_seen"), s.Dom)
			}
			h.cRevoked.Add(rv)
		}

		rates = append(rates, windowRates{
			dom:          s.Dom,
			progressRate: pr,
			faultRate:    fr,
			progressBase: mean(h.progress),
			faultBase:    mean(h.faults),
			baselineOK:   len(h.progress) >= m.cfg.Baseline,
		})

		h.progress = slide(h.progress, pr, m.cfg.Baseline)
		h.faults = slide(h.faults, fr, m.cfg.Baseline)
		// A domain with any activity left in its baseline must keep being
		// processed next window even if it goes quiet; once the baseline is
		// all zeros it can be dropped until it reactivates.
		if h.hot() {
			cooling = append(cooling, s.Order)
		}
	}
	m.rates = rates
	m.cooling = cooling

	// Victims: progress collapsed below DegradeFrac of baseline.
	for _, v := range rates {
		if !v.baselineOK || v.progressBase <= 0 {
			continue
		}
		if v.progressRate >= m.cfg.DegradeFrac*v.progressBase {
			continue
		}
		// Suspect: the other domain with the strongest fault surge.
		best := -1
		bestRatio := 0.0
		for i, s := range rates {
			if s.dom == v.dom || !s.baselineOK {
				continue
			}
			var ratio float64
			switch {
			case s.faultBase > 0:
				ratio = s.faultRate / s.faultBase
			case s.faultRate > 0:
				ratio = m.cfg.SurgeFrac + 1 // surge from zero baseline
			default:
				continue
			}
			if ratio > m.cfg.SurgeFrac && ratio > bestRatio {
				best = i
				bestRatio = ratio
			}
		}
		if best < 0 {
			continue
		}
		s := rates[best]
		m.reg.addFlag(Flag{
			At:              m.reg.Now(),
			Window:          time.Duration(secs * float64(time.Second)),
			Victim:          m.reg.doms[v.dom],
			Suspect:         m.reg.doms[s.dom],
			VictimRate:      v.progressRate,
			VictimBaseline:  v.progressBase,
			SuspectRate:     s.faultRate,
			SuspectBaseline: s.faultBase,
			FreeFrames:      pressure.FreeFrames,
		})
		m.reg.counterAt(m.reg.internFam("crosstalk", "flags"), v.dom).Inc()
	}
}
