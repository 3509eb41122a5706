package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"nemesis/internal/experiments/sweep"
	"nemesis/internal/stretchdrv"
)

// SuiteCell is one experiment of the full suite: its name and rendered
// summary. Cells are independent deterministic runs, so the rendered text
// is identical whether the suite ran serially or fanned out.
type SuiteCell struct {
	Name   string `json:"name"`
	Output string `json:"output"`
}

// RunSuite runs the full experiment suite — Table 1, Figs. 7–9, the
// ablations A1–A5, the extensions E1–E7 and the netswap trio — as
// independent cells fanned out over workers goroutines (sweep.Workers()
// when workers <= 0). Given name prefixes, it runs only the cells whose
// names start with one of them (see SuiteCellNames). Results come back in
// suite order regardless of the fan-out, so serial and parallel runs
// produce byte-identical output. measure bounds each cell's simulated
// measurement window; cells that need less clamp it themselves. Workers
// observe ctx between cells (a cancelled suite stops scheduling cells and
// returns ctx.Err()), and a sweep.WithProgress callback on ctx receives
// per-cell completion events. In-flight cells run to completion; a single
// cell is not interruptible mid-simulation, but the cells that sweep
// (E2, E7, E8a) pass ctx and workers on to their own sweeps.
func RunSuite(ctx context.Context, measure time.Duration, workers int, prefixes []string) ([]SuiteCell, error) {
	cells, err := selectCells(suiteCellList(measure, workers), prefixes)
	if err != nil {
		return nil, err
	}
	return sweep.Map(ctx, workers, cells, func(ctx context.Context, c suiteCellDef) (SuiteCell, error) {
		out, err := c.run(ctx)
		if err != nil {
			return SuiteCell{}, fmt.Errorf("%s: %w", c.name, err)
		}
		return SuiteCell{Name: c.name, Output: out}, nil
	})
}

// SuiteCellNames returns, in suite order, the names of the cells whose
// names start with one of prefixes, or of every cell when there are none.
// A prefix that matches no cell is an error.
func SuiteCellNames(prefixes []string) ([]string, error) {
	cells, err := selectCells(suiteCellList(0, 0), prefixes)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(cells))
	for i, c := range cells {
		names[i] = c.name
	}
	return names, nil
}

// selectCells keeps the cells whose names start with one of prefixes, all
// of them when there are none.
func selectCells(cells []suiteCellDef, prefixes []string) ([]suiteCellDef, error) {
	if len(prefixes) == 0 {
		return cells, nil
	}
	picked := make([]bool, len(cells))
	for _, p := range prefixes {
		hit := false
		for i, c := range cells {
			if p != "" && strings.HasPrefix(c.name, p) {
				picked[i], hit = true, true
			}
		}
		if !hit {
			return nil, fmt.Errorf("experiments: no suite cell name starts with %q", p)
		}
	}
	var out []suiteCellDef
	for i, c := range cells {
		if picked[i] {
			out = append(out, c)
		}
	}
	return out, nil
}

// suiteCellDef is one experiment cell of the suite.
type suiteCellDef struct {
	name string
	run  func(ctx context.Context) (string, error)
}

// suiteCellList builds the suite's cells. The cells that sweep fan out
// over the suite's own workers bound.
func suiteCellList(measure time.Duration, workers int) []suiteCellDef {
	short := measure
	if short > 15*time.Second {
		short = 15 * time.Second
	}

	return []suiteCellDef{
		{"table1", func(context.Context) (string, error) {
			rows, err := Table1()
			if err != nil {
				return "", err
			}
			return FormatTable1(rows), nil
		}},
		{"fig7 paging-in", func(context.Context) (string, error) {
			opt := DefaultPagingOptions()
			opt.Measure = measure
			r, err := RunPaging(opt)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("mean Mbit/s %s  ratios %s\n", fmtFloats(r.MeanMbps), fmtFloats(r.Ratios())), nil
		}},
		{"fig8 paging-out", func(context.Context) (string, error) {
			opt := DefaultPagingOptions()
			opt.Measure = measure
			opt.Forgetful = true
			r, err := RunPaging(opt)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("mean Mbit/s %s  ratios %s\n", fmtFloats(r.MeanMbps), fmtFloats(r.Ratios())), nil
		}},
		{"fig9 fs-isolation", func(context.Context) (string, error) {
			opt := DefaultFig9Options()
			opt.Measure = measure
			r, err := RunFig9(opt)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("alone %.2f  contended %.2f  isolation %.3f\n", r.AloneMbps, r.ContendedMbps, r.Isolation()), nil
		}},
		{"A1 laxity", func(context.Context) (string, error) {
			r, err := AblationLaxity(short)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("with %s  without %s  txns/period without %s\n",
				fmtFloats(r.WithLaxityMbps), fmtFloats(r.WithoutLaxityMbps), fmtFloats(r.TxnsPerPeriodWithout)), nil
		}},
		{"A2 fcfs-disk", func(context.Context) (string, error) {
			r, err := AblationFCFS(short)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("atropos %s  fcfs %s\n", fmtFloats(r.AtroposMbps), fmtFloats(r.FCFSMbps)), nil
		}},
		{"A3 crosstalk", func(context.Context) (string, error) {
			r, err := AblationCrosstalk(short)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("self %.2f->%.2f Mbit/s iso %.2f  ext %.2f->%.2f Mbit/s iso %.2f\n",
				r.SelfAloneMbps, r.SelfContendedMbps, r.SelfIsolation(),
				r.ExtAloneMbps, r.ExtContendedMbps, r.ExtIsolation()), nil
		}},
		{"A4 slack", func(context.Context) (string, error) {
			r, err := AblationSlack(short)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("x=true %.2f  x=false %.2f\n", r.XTrueMbps, r.XFalseMbps), nil
		}},
		{"A5 revocation", func(context.Context) (string, error) {
			r, err := AblationRevocation()
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("transparent %.3fms  intrusive %.3fms\n", r.TransparentMs, r.IntrusiveMs), nil
		}},
		{"E1 pipeline-depth", func(context.Context) (string, error) {
			r, err := ExtensionPipelineDepth([]int{1, 2, 4, 8, 16}, short)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%v -> %s Mbit/s\n", r.Depths, fmtFloats(r.Mbps)), nil
		}},
		{"E2 eviction-policies", func(ctx context.Context) (string, error) {
			rows, err := ExtensionEvictionPolicies(ctx, short,
				[]stretchdrv.PolicyKind{stretchdrv.PolicyFIFO, stretchdrv.PolicySecondChance, stretchdrv.PolicyClock}, workers)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			for _, pc := range rows {
				fmt.Fprintf(&b, "%v %.1f ins/MB (%.1f Mbit/s)\n", pc.Policy, pc.PageInsPerMB, pc.Mbps)
			}
			return b.String(), nil
		}},
		{"E3 guarded-pt", func(context.Context) (string, error) {
			r, err := ExtensionGuardedPT()
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("linear %.2fus  guarded %.2fus  %.1fx\n", r.LinearUS, r.GuardedUS, r.Slowdown()), nil
		}},
		{"E4 stream-paging", func(context.Context) (string, error) {
			r, err := ExtensionStreamPaging(short)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("demand %.2f  streaming %.2f  %.2fx  prefetch accuracy %d/%d\n",
				r.DemandMbps, r.StreamingMbps, r.Speedup(), r.PrefetchedUsed, r.Prefetches), nil
		}},
		{"E5 rebalancer", func(context.Context) (string, error) {
			r, err := ExtensionRebalance(short)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%.2f -> %.2f Mbit/s (frames %d -> %d, %d moves)\n",
				r.WithoutMbps, r.WithMbps, r.WorkerFramesWithout, r.WorkerFramesWith, r.Moves), nil
		}},
		{"E6 mjpeg", func(context.Context) (string, error) {
			r, err := MotivationMJPEG(short)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("qos miss %.1f%% jitter %.2fms  fcfs miss %.1f%% jitter %.2fms\n",
				100*r.QoSMissRate, r.QoSJitterMs, 100*r.FCFSMissRate, r.FCFSJitterMs), nil
		}},
		{"E7 write-clustering", func(ctx context.Context) (string, error) {
			r, err := ExtensionWriteClustering(ctx, short, []int{1, 2, 4, 8}, workers)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("sizes %v  txns/pageout %s\n", r.Sizes, fmtFloats(r.TxnsPerPageOut)), nil
		}},
		{"E8a netswap-sweep", func(ctx context.Context) (string, error) {
			latencies := []time.Duration{200 * time.Microsecond, time.Millisecond, 2 * time.Millisecond}
			losses := []float64{0, 0.05}
			r, err := RunNetswapSweep(ctx, latencies, losses, short, workers)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			for _, c := range r.Cells {
				fmt.Fprintf(&b, "%v loss %.2f: %.2f Mbit/s  net.out p50 %.3fms p95 %.3fms  store p50 %.3fms p95 %.3fms  net.back p50 %.3fms p95 %.3fms  rpcs %d retries %d timeouts %d\n",
					c.Latency, c.Loss, c.Mbps, c.NetOutP50Ms, c.NetOutP95Ms, c.StoreP50Ms, c.StoreP95Ms,
					c.NetBackP50Ms, c.NetBackP95Ms, c.RPCs, c.Retries, c.Timeouts)
			}
			return b.String(), nil
		}},
		{"E8b netswap-outage", func(context.Context) (string, error) {
			r, err := RunNetswapOutage(short / 3)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			fmt.Fprintf(&b, "local %s  remote %s  flags %d (monitor ticks %d)\n",
				fmtFloats(r.LocalMbps[:]), fmtFloats(r.RemoteMbps[:]), len(r.Flags), r.MonitorTicks)
			for _, f := range r.Flags {
				fmt.Fprintf(&b, "FLAG %+v\n", f)
			}
			return b.String(), nil
		}},
		{"E8c netswap-degrade", func(context.Context) (string, error) {
			r, err := RunNetswapDegrade(short / 3)
			if err != nil {
				return "", err
			}
			s := r.Stats
			return fmt.Sprintf("mbps %s  degraded=%v  demotions %d  local fallbacks %d  deadline misses %d  degraded entries %d  local hits %d\n",
				fmtFloats(r.Mbps[:]), r.DegradedDuringOutage,
				s.Demotions, s.LocalFallbacks, s.DeadlineMisses, s.DegradedEntries, s.LocalHits), nil
		}},
	}
}

func fmtFloats(fs []float64) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, f := range fs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.2f", f)
	}
	b.WriteByte(']')
	return b.String()
}
