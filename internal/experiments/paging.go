// Package experiments contains one harness per table and figure of the
// paper's evaluation (§7), plus the ablations DESIGN.md calls out. Each
// harness builds a fresh simulated machine, runs the paper's workload and
// returns the series/rows the paper plots, so cmd/ tools and benchmarks can
// regenerate every result.
//
// The paper's figures are steady-state numbers taken after an
// initialisation phase (§7.2), and the heavy harnesses (Table 1, Figs.
// 7–9) share one protocol around that boundary:
//
//	warm    — boot the machine and run the expensive initialisation
//	          (demand-zero faults, swap population) in threads that EXIT
//	          when done, leaving the world quiesced;
//	measure — on the same world, start everything that observes the
//	          window at its first instant (attribution accounts, crosstalk
//	          monitor, timeline recorder, snapshot callback), attach the
//	          steady-state workload and run the measured window.
//
// A quiesced warm world can also be checkpointed with core.System.Fork;
// nemesis-serve's warm pool does exactly that (PagingWarm.Fork), and
// fork-then-measure is byte-identical to measuring in place. Fork carries
// only untraced worlds, so PagingWarm.Fork returns Fork's error for options
// with Telemetry or Timeline.
package experiments

import (
	"fmt"
	"time"

	"nemesis/internal/atropos"
	"nemesis/internal/core"
	"nemesis/internal/obs"
	"nemesis/internal/trace"
	"nemesis/internal/usd"
	"nemesis/internal/workload"
)

// PagingOptions parameterises the Fig. 7 / Fig. 8 experiments.
type PagingOptions struct {
	// Slices are the per-application disk slices (paper: 25, 50, 100 ms).
	Slices []time.Duration
	// Period is the common period (paper: 250 ms).
	Period time.Duration
	// Laxity is the l parameter (paper: 10 ms).
	Laxity time.Duration
	// LaxityEnabled=false reproduces the pre-laxity USD (ablation A1).
	LaxityEnabled bool
	// FCFS runs the unscheduled-disk ablation (A2).
	FCFS bool
	// Forgetful selects the page-out experiment (Fig. 8): each
	// application writes instead of reading, over the forgetful stretch
	// driver that never pages in.
	Forgetful bool
	// VirtBytes is each application's stretch (paper: 4 MB); each keeps
	// the paper's 2 frames and 16 MB of swap.
	VirtBytes uint64
	// Measure is the measured window after every application has
	// initialised.
	Measure time.Duration
	// SampleEvery is the watch-thread period (paper: 5 s).
	SampleEvery time.Duration
	Seed        int64
	// Telemetry enables the observability registry (fault spans, metric
	// series) and starts the QoS-crosstalk monitor on the system.
	Telemetry bool
	// Hog admits a fourth application with a small (5%) disk slice but an
	// unbounded paging appetite. Under Atropos the contention it creates
	// must land in its own attribution account while the contracted
	// applications' breakdowns stay flat — the attribution experiments
	// assert exactly that. Off for all figure/golden runs.
	Hog bool
	// Timeline (implies Telemetry) starts the time-series recorder for the
	// measured window and adds a deterministic revocation episode — a hog
	// domain holding optimistic frames is revoked from mid-measure — so the
	// exported timeline always contains revocation-phase audit events. It
	// perturbs the workload, so it is off for golden/figure runs.
	Timeline bool
	// SnapshotEvery, with Telemetry, invokes OnSnapshot at this period of
	// simulated time during the measured window — nemesis-paging
	// -interval uses it to render periodic per-domain tables.
	SnapshotEvery time.Duration
	OnSnapshot    func(sys *core.System)
}

// DefaultPagingOptions returns the paper's parameters for Fig. 7.
func DefaultPagingOptions() PagingOptions {
	return PagingOptions{
		Slices:        []time.Duration{25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond},
		Period:        250 * time.Millisecond,
		Laxity:        10 * time.Millisecond,
		LaxityEnabled: true,
		VirtBytes:     4 << 20,
		Measure:       40 * time.Second,
		SampleEvery:   5 * time.Second,
		Seed:          1,
	}
}

// PagingResult is the outcome of a Fig. 7/8-style run.
type PagingResult struct {
	Opts   PagingOptions
	Sys    *core.System
	Pagers []*workload.Pager
	// Set holds one bandwidth series per application (Mbit/s, the top
	// half of the figure).
	Set *trace.SeriesSet
	// Log is the USD scheduler trace (the bottom half of the figure).
	Log *trace.Log
	// MeanMbps is each application's mean sustained bandwidth over the
	// measured window, in slice order.
	MeanMbps []float64
	// MeasureStart marks where the measured window began.
	MeasureStart time.Duration
}

// Ratios returns consecutive bandwidth ratios (app[i+1]/app[i]); for the
// paper's 10/20/40% contracts both should be ~2.
func (r *PagingResult) Ratios() []float64 {
	var out []float64
	for i := 1; i < len(r.MeanMbps); i++ {
		if r.MeanMbps[i-1] == 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, r.MeanMbps[i]/r.MeanMbps[i-1])
	}
	return out
}

// PagingWarm is a warmed Fig. 7/8-style world: applications admitted and
// initialised by threads that have exited, leaving the world quiesced and
// forkable. Measure it (consuming it), or Fork it per measurement.
type PagingWarm struct {
	Opts   PagingOptions
	Sys    *core.System
	Pagers []*workload.Pager
	Set    *trace.SeriesSet
}

// WarmPaging boots the Fig. 7/8 machine and runs only the initialisation
// phase. The returned world is quiesced: every application has faulted its
// working set in (and, for the paging-out variants, populated swap), and
// the init threads have exited.
func WarmPaging(opt PagingOptions) (*PagingWarm, error) {
	if opt.Timeline {
		opt.Telemetry = true
	}
	cfg := core.DefaultConfig()
	cfg.Seed = opt.Seed
	cfg.MemoryFrames = 2048 // 16 MB: ample, contention is per-contract
	cfg.Telemetry = opt.Telemetry
	sys := core.New(cfg)
	sys.USD.LaxityEnabled = opt.LaxityEnabled
	sys.USD.FCFS = opt.FCFS

	w := &PagingWarm{Opts: opt, Sys: sys, Set: &trace.SeriesSet{}}
	add := func(name string, slice time.Duration) error {
		pc := workload.DefaultPagerConfig(name, slice)
		pc.DiskQoS = atropos.QoS{P: opt.Period, S: slice, X: false, L: opt.Laxity}
		pc.VirtBytes = opt.VirtBytes
		pc.Write = opt.Forgetful
		pc.Forgetful = opt.Forgetful
		pc.SampleEvery = opt.SampleEvery
		pg, err := workload.WarmPager(sys, pc, w.Set.New(name))
		if err != nil {
			return err
		}
		w.Pagers = append(w.Pagers, pg)
		return nil
	}
	for i, slice := range opt.Slices {
		name := fmt.Sprintf("app%d-%d%%", i+1, int(100*float64(slice)/float64(opt.Period)))
		if err := add(name, slice); err != nil {
			return nil, err
		}
	}
	if opt.Hog {
		// 5% of the period: a starved contract, so the hog's demand piles
		// up in its own usd.queue account instead of on the victims.
		if err := add("hog-5%", opt.Period/20); err != nil {
			return nil, err
		}
	}
	if err := awaitInit(sys, w.Pagers); err != nil {
		sys.Shutdown()
		return nil, err
	}
	return w, nil
}

// initLimit bounds the initialisation phase in simulated time.
const initLimit = 10 * time.Minute

// awaitInit runs sys until every pager has initialised, failing once
// initLimit of simulated time has passed.
func awaitInit(sys *core.System, pagers []*workload.Pager) error {
	deadline := sys.Sim.Now().Add(initLimit)
	for {
		ready := true
		for _, pg := range pagers {
			if !pg.Initialised {
				ready = false
			}
		}
		if ready {
			return nil
		}
		if sys.Sim.Now() >= deadline {
			return fmt.Errorf("experiments: initialisation exceeded %v", initLimit)
		}
		sys.Run(time.Second)
	}
}

// Fork checkpoints the warmed world and returns an independent copy with
// its own series set, ready to Measure. The parent stays warm and can be
// forked again (forks of one parent must be taken serially; measuring the
// forks may proceed in parallel).
func (w *PagingWarm) Fork() (*PagingWarm, error) {
	snap, err := w.Sys.Fork()
	if err != nil {
		return nil, err
	}
	nw := &PagingWarm{Opts: w.Opts, Sys: snap.Sys, Set: &trace.SeriesSet{}}
	for _, pg := range w.Pagers {
		np, err := pg.Remap(snap.Sys)
		if err != nil {
			return nil, err
		}
		np.Series = nw.Set.New(np.Cfg.Name)
		nw.Pagers = append(nw.Pagers, np)
	}
	return nw, nil
}

// Measure runs the measured window on a warmed world and consumes it: the
// system is shut down before Measure returns. At the window's first instant
// the attribution accounts restart, the crosstalk monitor starts (with
// Telemetry), and the timeline recorder and its revocation episode start
// (with Timeline); then the steady-state threads resume. With Telemetry and
// SnapshotEvery, OnSnapshot fires periodically through the window.
func (w *PagingWarm) Measure(measure time.Duration) (*PagingResult, error) {
	opt := w.Opts
	opt.Measure = measure
	sys := w.Sys
	res := &PagingResult{Opts: opt, Sys: sys, Pagers: w.Pagers, Set: w.Set, Log: sys.USDLog}
	res.MeasureStart = sys.Sim.Now().Duration()
	sys.Obs.Attr().Restart()
	if opt.Telemetry {
		sys.StartCrosstalkMonitor(obs.DefaultCrosstalkConfig())
	}
	if opt.Timeline {
		sys.StartRecorder()
		if err := startRevocationEpisode(sys, measure/2); err != nil {
			sys.Shutdown()
			return nil, err
		}
	}
	for _, pg := range w.Pagers {
		pg.Resume()
	}

	if opt.Telemetry && opt.SnapshotEvery > 0 && opt.OnSnapshot != nil {
		for remaining := measure; remaining > 0; {
			step := min(opt.SnapshotEvery, remaining)
			sys.Run(step)
			remaining -= step
			opt.OnSnapshot(sys)
		}
	} else {
		sys.Run(measure)
	}

	start := sys.Sim.Now().Add(-measure)
	for _, pg := range w.Pagers {
		res.MeanMbps = append(res.MeanMbps, pg.Series.MeanAfter(start))
	}
	sys.Shutdown()
	return res, nil
}

// RunPaging executes a Fig. 7/8-style experiment: warm the machine, then
// measure on the same world.
func RunPaging(opt PagingOptions) (*PagingResult, error) {
	w, err := WarmPaging(opt)
	if err != nil {
		return nil, err
	}
	return w.Measure(opt.Measure)
}

// Fig9Options parameterises the file-system isolation experiment. The
// client keeps the paper's pipeline depth of 8, and every series samples
// every 5 s.
type Fig9Options struct {
	// FSQoS is the file-system client's contract (paper: 125/250 ms).
	FSQoS atropos.QoS
	// PagerSlices are the competing pagers' slices (paper: 10% and 20%).
	PagerSlices []time.Duration
	Period      time.Duration
	Laxity      time.Duration
	Measure     time.Duration
	Seed        int64
	// Timeline enables telemetry plus the time-series recorder on the
	// contended run, exposing it as Fig9Result.ContendedSys for export.
	Timeline bool
}

// DefaultFig9Options returns the paper's parameters.
func DefaultFig9Options() Fig9Options {
	return Fig9Options{
		FSQoS:       atropos.QoS{P: 250 * time.Millisecond, S: 125 * time.Millisecond, X: false, L: 10 * time.Millisecond},
		PagerSlices: []time.Duration{25 * time.Millisecond, 50 * time.Millisecond},
		Period:      250 * time.Millisecond,
		Laxity:      10 * time.Millisecond,
		Measure:     30 * time.Second,
		Seed:        1,
	}
}

// Fig9Result holds the isolation experiment's outcome.
type Fig9Result struct {
	Opts Fig9Options
	// AloneMbps is the FS client's sustained bandwidth with no other
	// disk activity; ContendedMbps with two heavily paging applications.
	AloneMbps, ContendedMbps float64
	// AloneSeries/ContendedSeries are the plotted series.
	AloneSeries, ContendedSeries *trace.Series
	// PagerMbps is the pagers' bandwidth in the contended run.
	PagerMbps []float64
	// ContendedSys is the contended run's system when Fig9Options.Timeline
	// is set (for timeline export), nil otherwise.
	ContendedSys *core.System
}

// Isolation returns the contended/alone throughput ratio (1.0 = perfect).
func (r *Fig9Result) Isolation() float64 {
	if r.AloneMbps == 0 {
		return 0
	}
	return r.ContendedMbps / r.AloneMbps
}

// RunFig9 executes the file-system isolation experiment: the FS client
// alone, then again alongside two paging applications. The pagers warm
// first; the FS client, the pagers' steady-state threads and (with
// Timeline) the recorder all start at the measured window's first instant.
func RunFig9(opt Fig9Options) (*Fig9Result, error) {
	res := &Fig9Result{Opts: opt}

	runOnce := func(withPagers bool) (*trace.Series, float64, []float64, error) {
		cfg := core.DefaultConfig()
		cfg.Seed = opt.Seed
		cfg.MemoryFrames = 2048
		cfg.Telemetry = opt.Timeline && withPagers
		sys := core.New(cfg)
		var set trace.SeriesSet
		var pagers []*workload.Pager
		if withPagers {
			for i, slice := range opt.PagerSlices {
				name := fmt.Sprintf("pager%d-%d%%", i+1, int(100*float64(slice)/float64(opt.Period)))
				pc := workload.DefaultPagerConfig(name, slice)
				pc.DiskQoS = atropos.QoS{P: opt.Period, S: slice, X: false, L: opt.Laxity}
				pg, err := workload.WarmPager(sys, pc, set.New(name))
				if err != nil {
					return nil, 0, nil, err
				}
				pagers = append(pagers, pg)
			}
			if err := awaitInit(sys, pagers); err != nil {
				sys.Shutdown()
				return nil, 0, nil, err
			}
		}

		measureStart := sys.Sim.Now()
		sys.Obs.Attr().Restart()
		if cfg.Telemetry {
			sys.StartRecorder()
			res.ContendedSys = sys
		}
		// FS data lives on the first quarter of the disk; swap files are
		// in the second half (DefaultConfig's partition).
		part := usd.Extent{Start: 0, Count: sys.Disk.Geom.TotalBlocks / 4}
		fcfg := workload.DefaultFSClientConfig("fs", part)
		fcfg.DiskQoS = opt.FSQoS
		fc, err := workload.StartFSClient(sys, fcfg, set.New("fs"))
		if err != nil {
			sys.Shutdown()
			return nil, 0, nil, err
		}
		for _, pg := range pagers {
			pg.Resume()
		}
		sys.Run(opt.Measure)
		fc.Stop()
		var pagerMbps []float64
		for _, pg := range pagers {
			pagerMbps = append(pagerMbps, pg.Series.MeanAfter(measureStart))
		}
		mean := set.Get("fs").MeanAfter(measureStart)
		sys.Shutdown()
		return set.Get("fs"), mean, pagerMbps, nil
	}

	var err error
	res.AloneSeries, res.AloneMbps, _, err = runOnce(false)
	if err != nil {
		return nil, err
	}
	res.ContendedSeries, res.ContendedMbps, res.PagerMbps, err = runOnce(true)
	if err != nil {
		return nil, err
	}
	return res, nil
}
