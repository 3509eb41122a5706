package core

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"text/tabwriter"

	"nemesis/internal/obs"
)

// StartCrosstalkMonitor begins periodic QoS-crosstalk sampling over all
// admitted domains, flagging windows in which one domain's paging activity
// surges while another's progress collapses. Each window it samples only
// the domains the activity tracker saw change (plus domains still cooling
// off), so thousands of idle domains cost nothing; see
// obs.NewCrosstalkMonitor for why detection still equals a full scan. It
// requires Config.Telemetry; with telemetry off it returns nil. The monitor
// is stopped by Shutdown.
func (sys *System) StartCrosstalkMonitor(cfg obs.CrosstalkConfig) *obs.CrosstalkMonitor {
	if sys.Obs == nil {
		return nil
	}
	// The monitor copies each window's samples out, so out is reused.
	var out []obs.DomainSample
	sample := func() ([]obs.DomainSample, obs.Pressure) {
		changed := sys.tracker.Drain()
		out = slices.Grow(out[:0], len(changed))
		for _, d := range changed {
			st := d.Stats()
			out = append(out, obs.DomainSample{
				Dom:         d.TelemetryNum(),
				Faults:      st.Faults,
				Progress:    st.BytesTouched,
				Revocations: st.Revocations,
				Order:       d.ActivityOrder(),
			})
		}
		return out, obs.Pressure{FreeFrames: sys.Frames.FreeFrames()}
	}
	sys.monitor = obs.NewCrosstalkMonitor(sys.Obs, sys.Sim, cfg, sample)
	sys.monitor.Start()
	return sys.monitor
}

// CrosstalkMonitor returns the running monitor, or nil.
func (sys *System) CrosstalkMonitor() *obs.CrosstalkMonitor { return sys.monitor }

// WriteTopTable renders a per-domain snapshot table (what nemesis-paging
// -interval prints): fault counters split by path, paging traffic, revocations,
// frames held, and the end-to-end page-fault latency distribution. Returns
// an error if telemetry is disabled.
func (sys *System) WriteTopTable(w io.Writer) error {
	d, err := sys.TopDump()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "DOMAIN\tFAULTS\tFAST\tWORKER\tPGIN\tPGOUT\tREVOKE\tFRAMES\tP50ms\tP95ms\tP99ms\tMAXms\t\n")
	for _, r := range d.Domains {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\t%s\t%s\t%s\t\n",
			r.Domain, r.Faults, r.FastPath, r.WorkerPath, r.PageIns, r.PageOuts, r.Revocations, r.Frames,
			quantMs(r.E2E, 0.50), quantMs(r.E2E, 0.95), quantMs(r.E2E, 0.99), quantMs(r.E2E, 1))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "free frames: %d   spans recorded: %d   spans evicted: %d   crosstalk flags: %d   t=%.0fms\n",
		d.FreeFrames, sys.Obs.SpanTotal(), sys.Obs.SpansEvicted(),
		len(sys.Obs.Flags()), sys.Obs.Now().Milliseconds())
	fmt.Fprintln(w)
	if err := d.Summary.WriteText(w); err != nil {
		return err
	}
	return sys.writeAttributionTable(w)
}

// topTableTopK bounds the top table's rollup to the worst offenders; the
// per-domain rows above it stay exhaustive.
const topTableTopK = 10

// TopDomain is one row of the top table in machine-readable form. The
// end-to-end fault latency comes as the full histogram snapshot, so readers
// can derive any quantile (and snapshots from several machines merge).
type TopDomain struct {
	Domain      string           `json:"domain"`
	Faults      int64            `json:"faults"`
	FastPath    int64            `json:"fast_path"`
	WorkerPath  int64            `json:"worker_path"`
	PageIns     int64            `json:"pageins"`
	PageOuts    int64            `json:"pageouts"`
	Revocations int64            `json:"revocations"`
	Frames      uint64           `json:"frames"`
	E2E         obs.HistSnapshot `json:"e2e"`
}

// TopDump is the machine-readable top table (nemesis-paging -top-json):
// every WriteTopTable row plus the registry rollup the rendered table
// embeds.
type TopDump struct {
	FreeFrames int          `json:"free_frames"`
	Domains    []TopDomain  `json:"domains"`
	Summary    *obs.Summary `json:"summary"`
}

// TopDump snapshots the top table. Returns an error if telemetry is
// disabled.
func (sys *System) TopDump() (*TopDump, error) {
	if sys.Obs == nil {
		return nil, fmt.Errorf("core: telemetry disabled (Config.Telemetry)")
	}
	d := &TopDump{
		FreeFrames: sys.Frames.FreeFrames(),
		Summary:    sys.Obs.Summarize(topTableTopK),
	}
	for _, dom := range sys.Domains() {
		st := dom.Stats()
		name := dom.Name()
		row := TopDomain{
			Domain:      name,
			Faults:      st.Faults,
			FastPath:    st.FastPath,
			WorkerPath:  st.WorkerPath,
			PageIns:     sys.Obs.LookupCounter("driver", "pageins", name).Value(),
			PageOuts:    sys.Obs.LookupCounter("driver", "pageouts", name).Value(),
			Revocations: st.Revocations,
			E2E:         sys.Obs.LookupHistogram("span", "e2e.page", name).Snapshot(),
		}
		if c := dom.MemClient(); c != nil {
			row.Frames = c.Allocated()
		}
		d.Domains = append(d.Domains, row)
	}
	return d, nil
}

// WriteTopJSON renders the machine-readable top table as two-space indented
// JSON with a trailing newline — byte-deterministic for a given run, like
// every other export.
func (sys *System) WriteTopJSON(w io.Writer) error {
	d, err := sys.TopDump()
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// writeAttributionTable renders the exact sim-time attribution — where every
// microsecond of each domain's lifetime went — with per-hop latency
// quantiles for the fault states (from the page-fault hop histograms). A
// no-op when attribution is not enabled.
func (sys *System) writeAttributionTable(w io.Writer) error {
	attr := sys.Obs.Attr()
	if attr == nil {
		return nil
	}
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "DOMAIN\tSTATE\tTOTALms\tSHARE%%\tP50ms\tP95ms\tP99ms\t\n")
	for _, p := range attr.Profiles() {
		for _, acc := range p.Accounts {
			label := acc.State.String()
			if acc.Hop != "" {
				label += ";" + acc.Hop
			}
			share := 0.0
			if p.Elapsed() > 0 {
				share = 100 * float64(acc.Total) / float64(p.Elapsed())
			}
			q50, q95, q99 := "-", "-", "-"
			if acc.State == obs.AttrFault {
				h := sys.Obs.HopHistogram(p.Domain, "page", acc.Hop).Snapshot()
				q50, q95, q99 = quantMs(h, 0.50), quantMs(h, 0.95), quantMs(h, 0.99)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.1f\t%s\t%s\t%s\t\n",
				p.Domain, label, float64(acc.Total)/1e6, share, q50, q95, q99)
		}
	}
	return tw.Flush()
}

// quantMs renders h's q-quantile in milliseconds (q = 1 is the maximum),
// or "-" when h is empty.
func quantMs(h obs.HistSnapshot, q float64) string {
	if h.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", h.Quantile(q).Seconds()*1e3)
}
