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
// when workers <= 0). Results come back in suite order regardless of the
// fan-out, so serial and parallel runs produce byte-identical output.
// measure bounds each cell's simulated measurement window; cells that need
// less clamp it themselves. Workers observe ctx between cells (a cancelled
// suite stops scheduling cells and returns ctx.Err()), and a
// sweep.WithProgress callback on ctx receives per-cell completion events.
// In-flight cells run to completion; a single cell is not interruptible
// mid-simulation.
func RunSuite(ctx context.Context, measure time.Duration, workers int) ([]SuiteCell, error) {
	if workers <= 0 {
		workers = sweep.Workers()
	}
	return sweep.MapWorkersContext(ctx, workers, suiteCellList(measure), func(ctx context.Context, c suiteCellDef) (SuiteCell, error) {
		out, err := c.run(ctx)
		if err != nil {
			return SuiteCell{}, fmt.Errorf("%s: %w", c.name, err)
		}
		return SuiteCell{Name: c.name, Output: out}, nil
	})
}

// suiteCellDef is one experiment cell of the suite.
type suiteCellDef struct {
	name string
	run  func(ctx context.Context) (string, error)
}

// suiteCellList builds the suite's cells.
func suiteCellList(measure time.Duration) []suiteCellDef {
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
			var b strings.Builder
			for _, r := range rows {
				fmt.Fprintf(&b, "%s\tsim %.2fus\tOSF/1 %.2fus\n", r.Name, r.NemesisUS, r.OSF1US)
			}
			return b.String(), nil
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
			opt.Write = true
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
			return fmt.Sprintf("with %.2f  without %.2f\n", r.WithLaxityMbps, r.WithoutLaxityMbps), nil
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
			return fmt.Sprintf("self iso %.2f  ext iso %.2f\n", r.SelfIsolation(), r.ExtIsolation()), nil
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
		{"E2 eviction-policies", func(context.Context) (string, error) {
			rows, err := ExtensionEvictionPolicies(short,
				[]stretchdrv.PolicyKind{stretchdrv.PolicyFIFO, stretchdrv.PolicySecondChance, stretchdrv.PolicyClock})
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
			return fmt.Sprintf("demand %.2f  streaming %.2f  %.2fx\n", r.DemandMbps, r.StreamingMbps, r.Speedup()), nil
		}},
		{"E5 rebalancer", func(context.Context) (string, error) {
			r, err := ExtensionRebalance(short)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%.2f -> %.2f Mbit/s (%d moves)\n", r.WithoutMbps, r.WithMbps, r.Moves), nil
		}},
		{"E6 mjpeg", func(context.Context) (string, error) {
			r, err := MotivationMJPEG(short)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("qos miss %.1f%% jitter %.2fms  fcfs miss %.1f%% jitter %.2fms\n",
				100*r.QoSMissRate, r.QoSJitterMs, 100*r.FCFSMissRate, r.FCFSJitterMs), nil
		}},
		{"E7 write-clustering", func(context.Context) (string, error) {
			r, err := ExtensionWriteClustering(short, []int{1, 2, 4, 8})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("sizes %v  txns/pageout %s\n", r.Sizes, fmtFloats(r.TxnsPerPageOut)), nil
		}},
		{"E8a netswap-sweep", func(ctx context.Context) (string, error) {
			latencies := []time.Duration{200 * time.Microsecond, time.Millisecond, 2 * time.Millisecond}
			losses := []float64{0, 0.05}
			r, err := RunNetswapSweepContext(ctx, latencies, losses, short)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			for _, c := range r.Cells {
				fmt.Fprintf(&b, "%v loss %.2f: %.2f Mbit/s  net.out p95 %.3fms\n", c.Latency, c.Loss, c.Mbps, c.NetOutP95Ms)
			}
			return b.String(), nil
		}},
		{"E8b netswap-outage", func(context.Context) (string, error) {
			r, err := RunNetswapOutage(short / 3)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("local %s  remote %s  flags %d\n", fmtFloats(r.LocalMbps[:]), fmtFloats(r.RemoteMbps[:]), len(r.Flags)), nil
		}},
		{"E8c netswap-degrade", func(context.Context) (string, error) {
			r, err := RunNetswapDegrade(short / 3)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("mbps %s  degraded=%v\n", fmtFloats(r.Mbps[:]), r.DegradedDuringOutage), nil
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
