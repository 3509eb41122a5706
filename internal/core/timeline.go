package core

import (
	"io"

	"nemesis/internal/domain"
	"nemesis/internal/obs"
)

// StartRecorder begins periodic time-series sampling of the system: free
// frames and USD queue depth system-wide, and per domain the fault and
// progress rates, scheduler occupancy, page-in/-out rates, resident pages,
// resident frames against the (g, o) contract, and the netswap in-flight
// window where one exists. Domains admitted later are
// tracked automatically (their earlier samples read zero). Requires
// Config.Telemetry; returns nil with telemetry off. The recorder is stopped
// by Shutdown; calling StartRecorder twice returns the first recorder.
func (sys *System) StartRecorder(cfg obs.RecorderConfig) *obs.Recorder {
	if sys.Obs == nil || sys.recorder != nil {
		return sys.recorder
	}
	rc := obs.NewRecorder(sys.Obs, sys.Sim, cfg)
	rc.TrackGauge("", "free_frames", "", "frames", func() int64 {
		return int64(sys.Frames.FreeFrames())
	})
	rc.TrackGauge("", "usd_queue_depth", "", "requests", func() int64 {
		return int64(sys.USD.QueuedRequests())
	})
	for _, d := range sys.Domains() {
		sys.trackDomain(rc, d)
	}
	sys.recorder = rc
	rc.Start()
	return rc
}

// trackDomain registers one domain's standard timeline tracks.
func (sys *System) trackDomain(rc *obs.Recorder, d *domain.Domain) {
	name := d.Name()
	rc.TrackRate("", "faults_per_s", name, "per_s", func() int64 {
		return d.Stats().Faults
	})
	rc.TrackRate("", "progress_bytes_per_s", name, "per_s", func() int64 {
		return d.Stats().BytesTouched
	})
	// Scheduler occupancy: CPU time charged per second of simulated time
	// (1e6 = the whole processor).
	if c := d.CPU(); c != nil {
		rc.TrackRate("", "cpu_us_per_s", name, "us_per_s", func() int64 {
			return c.Charged().Microseconds()
		})
	}
	// Paging activity over time (Fig. 8's subject): page-in/-out rates from
	// the pager engines' counters, and the resident working set. The
	// counters appear when the domain's first paged stretch is created, so
	// re-resolve per sample.
	rc.TrackRate("paging", "pageins_per_s", name, "per_s", func() int64 {
		return sys.Obs.LookupCounter("driver", "pageins", name).Value()
	})
	rc.TrackRate("paging", "pageouts_per_s", name, "per_s", func() int64 {
		return sys.Obs.LookupCounter("driver", "pageouts", name).Value()
	})
	rc.TrackGauge("", "resident_pages", name, "pages", func() int64 {
		return int64(d.ResidentPages())
	})
	if c := d.MemClient(); c != nil {
		ct := c.Contract()
		g, o := int64(ct.Guaranteed), int64(ct.Guaranteed+ct.Optimistic)
		rc.TrackGauge("frames", "held", name, "frames", func() int64 {
			return int64(c.Allocated())
		})
		rc.TrackGauge("frames", "guarantee", name, "frames", func() int64 { return g })
		rc.TrackGauge("frames", "optimistic", name, "frames", func() int64 { return o })
	}
	// Attribution breakdown over time: microseconds per second of sim time
	// accrued in each coarse state. Together the four series sum to ~1e6,
	// so a stacked view shows the whole processor-second accounted for.
	if attr := sys.Obs.Attr(); attr != nil {
		da := attr.Track(d.TelemetryNum())
		for _, st := range obs.AttrStates {
			st := st
			rc.TrackRate("attr", st.String(), name, "us_per_s", func() int64 {
				return da.StateTotal(st).Microseconds()
			})
		}
	}
	// Only netswap systems carry in-flight tracks. The gauge itself may
	// appear after the domain is tracked, so re-resolve per sample.
	if sys.NetSwap != nil {
		rc.TrackGauge("", "netswap_inflight", name, "requests", func() int64 {
			return sys.Obs.LookupGauge("netswap", "inflight", name).Value()
		})
	}
}

// Recorder returns the running time-series recorder, or nil.
func (sys *System) Recorder() *obs.Recorder { return sys.recorder }

// Timeline bundles the registry and recorder for export.
func (sys *System) Timeline() obs.Timeline {
	return obs.Timeline{Reg: sys.Obs, Rec: sys.recorder}
}

// WriteTimeline renders the run's timeline as Chrome trace-event JSON,
// loadable in ui.perfetto.dev.
func (sys *System) WriteTimeline(w io.Writer) error {
	return sys.Timeline().Dump().WriteTrace(w)
}
