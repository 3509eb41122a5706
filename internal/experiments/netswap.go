package experiments

import (
	"context"
	"fmt"
	"time"

	"nemesis/internal/core"
	"nemesis/internal/experiments/sweep"
	"nemesis/internal/netswap"
	"nemesis/internal/obs"
	"nemesis/internal/workload"
)

// NetswapCell is one (link latency, loss) point of the E8 sweep: the paging
// application's sustained throughput and the per-hop fault-latency
// breakdown — network out (request wire + server queue + retransmits),
// remote store (the server's own disk service) and network back (reply
// wire) — plus the client's RPC counters.
type NetswapCell struct {
	Latency time.Duration `json:"latency_ns"`
	Loss    float64       `json:"loss"`
	Mbps    float64       `json:"mbps"`
	// Per-hop p50/p95 in milliseconds, from the page-fault spans.
	NetOutP50Ms  float64 `json:"net_out_p50_ms"`
	NetOutP95Ms  float64 `json:"net_out_p95_ms"`
	StoreP50Ms   float64 `json:"store_p50_ms"`
	StoreP95Ms   float64 `json:"store_p95_ms"`
	NetBackP50Ms float64 `json:"net_back_p50_ms"`
	NetBackP95Ms float64 `json:"net_back_p95_ms"`
	RPCs         int64   `json:"rpcs"`
	Retries      int64   `json:"retries"`
	Timeouts     int64   `json:"timeouts"`
}

// NetswapSweepResult is E8a: fault latency against link latency and loss.
type NetswapSweepResult struct {
	Cells []NetswapCell `json:"cells"`
}

// RunNetswapSweep measures a remote-paging application across the cross
// product of link latencies and loss probabilities, measure of simulated
// time per cell. Every cell is an independent deterministic run; cells fan
// out across workers sweep workers (sweep.Workers() when workers <= 0) and
// come back in sweep order. Workers observe ctx between (latency, loss)
// cells, and a sweep.WithProgress callback on ctx receives per-cell
// completion events.
func RunNetswapSweep(ctx context.Context, latencies []time.Duration, losses []float64, measure time.Duration, workers int) (*NetswapSweepResult, error) {
	type point struct {
		lat  time.Duration
		loss float64
	}
	var pts []point
	for _, loss := range losses {
		for _, lat := range latencies {
			pts = append(pts, point{lat, loss})
		}
	}
	cells, err := sweep.Map(ctx, workers, pts, func(_ context.Context, p point) (*NetswapCell, error) {
		return runNetswapCell(p.lat, p.loss, measure)
	})
	if err != nil {
		return nil, err
	}
	res := &NetswapSweepResult{Cells: make([]NetswapCell, 0, len(cells))}
	for _, c := range cells {
		res.Cells = append(res.Cells, *c)
	}
	return res, nil
}

// runNetswapCell runs one sweep point: a single paging application (the
// paper's §7.2 workload) whose pager cleans to and faults from the remote
// swap server.
func runNetswapCell(latency time.Duration, loss float64, measure time.Duration) (*NetswapCell, error) {
	cfg := core.DefaultConfig()
	cfg.MemoryFrames = 1024
	cfg.Telemetry = true
	ns := netswap.DefaultConfig()
	ns.Link.Latency = latency
	ns.Link.DropProb = loss
	cfg.NetSwap = &ns
	sys := core.New(cfg)

	pc := workload.DefaultPagerConfig("remote", 100*time.Millisecond)
	pc.PhysFrames = 8
	pc.VirtBytes = 2 << 20
	pc.Backing = core.BackingRemote
	pc.Write = true // keep the writeback path hot, not just page-ins
	pc.SkipInit = true
	pg, err := workload.StartPager(sys, pc, nil)
	if err != nil {
		return nil, err
	}
	sys.Run(measure)
	cell := &NetswapCell{
		Latency: latency,
		Loss:    loss,
		Mbps:    float64(pg.Bytes) * 8 / 1e6 / measure.Seconds(),
	}
	for _, h := range sys.Obs.HopSummaries() {
		if h.Domain != "remote" || h.Class != "page" {
			continue
		}
		switch h.Hop {
		case "net.out":
			cell.NetOutP50Ms, cell.NetOutP95Ms = h.P50Ms, h.P95Ms
		case "remote.store":
			cell.StoreP50Ms, cell.StoreP95Ms = h.P50Ms, h.P95Ms
		case "net.back":
			cell.NetBackP50Ms, cell.NetBackP95Ms = h.P50Ms, h.P95Ms
		}
	}
	if rb, ok := pg.Drv.Backing().(*netswap.RemoteBacking); ok {
		cell.RPCs = rb.Stats.RPCs
		cell.Retries = rb.Stats.Retries
		cell.Timeouts = rb.Stats.Timeouts
	}
	sys.Shutdown()
	return cell, nil
}

// NetswapOutageResult is E8b: isolation under a remote outage. A local-swap
// domain and a remote-paging domain run side by side; mid-run the link
// blackholes for a phase, then heals. The QoS firewall holds if the local
// domain's throughput is unchanged while the remote domain alone stalls —
// and the crosstalk monitor agrees by raising no flags.
type NetswapOutageResult struct {
	// Per-phase sustained throughput (Mbit/s): before, during and after
	// the outage.
	LocalMbps  [3]float64
	RemoteMbps [3]float64
	// Flags is what the crosstalk monitor raised across the whole run.
	Flags []obs.Flag
	// Crosstalk is the qos.crosstalk audit-event slice for the run — the
	// structured form "zero crosstalk" is asserted on.
	Crosstalk []obs.AuditEvent
	// Audit is the full audit log (netswap transitions included).
	Audit []obs.AuditEvent
	// MonitorTicks > 0 proves the monitor was actually sampling.
	MonitorTicks int64
}

// RunNetswapOutage runs E8b with the given phase length (total simulated
// time = 3 × phase).
func RunNetswapOutage(phase time.Duration) (*NetswapOutageResult, error) {
	cfg := core.DefaultConfig()
	cfg.MemoryFrames = 1024
	cfg.Telemetry = true
	ns := netswap.DefaultConfig()
	// The remote domain would rather stall than die: retry forever.
	ns.Remote.MaxRetries = -1
	cfg.NetSwap = &ns
	sys := core.New(cfg)

	local := workload.DefaultPagerConfig("local", 62500*time.Microsecond)
	local.PhysFrames = 8
	local.VirtBytes = 1 << 20
	local.Write = true
	local.SkipInit = true
	lp, err := workload.StartPager(sys, local, nil)
	if err != nil {
		return nil, err
	}

	remote := workload.DefaultPagerConfig("remote", 62500*time.Microsecond)
	remote.PhysFrames = 8
	remote.VirtBytes = 1 << 20
	remote.Backing = core.BackingRemote
	remote.Write = true
	remote.SkipInit = true
	rp, err := workload.StartPager(sys, remote, nil)
	if err != nil {
		return nil, err
	}

	mon := sys.StartCrosstalkMonitor(obs.DefaultCrosstalkConfig())
	res := &NetswapOutageResult{}
	snap := func(i int, run time.Duration) {
		l0, r0 := lp.Bytes, rp.Bytes
		sys.Run(run)
		res.LocalMbps[i] = float64(lp.Bytes-l0) * 8 / 1e6 / run.Seconds()
		res.RemoteMbps[i] = float64(rp.Bytes-r0) * 8 / 1e6 / run.Seconds()
	}
	snap(0, phase)
	sys.NetSwap.SetOutage(true)
	snap(1, phase)
	sys.NetSwap.SetOutage(false)
	snap(2, phase)

	// Shutdown first: the monitor flushes its trailing partial window on
	// Stop, and those flags/audit events belong to the run.
	sys.Shutdown()
	res.Flags = sys.Obs.Flags()
	res.Crosstalk = sys.Obs.AuditByKind(obs.AuditCrosstalk)
	res.Audit = sys.Obs.AuditLog()
	if mon != nil {
		res.MonitorTicks = mon.Ticks()
	}
	return res, nil
}

// NetswapDegradeResult is E8c: QoS-preserving degradation. A tiered-backing
// domain keeps paging through a remote outage by falling over to its local
// tier, then resumes demoting to the remote store once the link heals.
type NetswapDegradeResult struct {
	// Per-phase sustained throughput (Mbit/s): before, during and after
	// the outage.
	Mbps [3]float64
	// Tiered backing counters at the end of the run.
	Stats netswap.TieredStats
	// DegradedDuringOutage records whether the backing was running on its
	// local tier at the end of the outage phase.
	DegradedDuringOutage bool
	// Audit is the run's audit log; the degrade → probe → restore
	// transitions appear here as net.* events.
	Audit []obs.AuditEvent
}

// RunNetswapDegrade runs E8c with the given phase length.
func RunNetswapDegrade(phase time.Duration) (*NetswapDegradeResult, error) {
	cfg := core.DefaultConfig()
	cfg.MemoryFrames = 1024
	cfg.Telemetry = true
	ns := netswap.DefaultConfig()
	// Fail over quickly relative to the phase length.
	ns.Remote.Timeout = 60 * time.Millisecond
	ns.Remote.MaxRetries = 1
	ns.Tiered.Deadline = 150 * time.Millisecond
	ns.Tiered.MissBudget = 2
	ns.Tiered.Cooldown = phase / 4
	cfg.NetSwap = &ns
	sys := core.New(cfg)

	pc := workload.DefaultPagerConfig("tiered", 100*time.Millisecond)
	pc.PhysFrames = 8
	pc.VirtBytes = 1 << 20
	pc.SwapBytes = 2 << 20 // local tier: half the remote store's role
	pc.Backing = core.BackingTiered
	pc.Write = true // dirty pages force cleaning, the path that degrades
	pc.SkipInit = true
	pg, err := workload.StartPager(sys, pc, nil)
	if err != nil {
		return nil, err
	}
	tb, ok := pg.Drv.Backing().(*netswap.TieredBacking)
	if !ok {
		return nil, fmt.Errorf("experiments: tiered pager got backing %q", pg.Drv.Backing().Name())
	}

	res := &NetswapDegradeResult{}
	snap := func(i int, run time.Duration) {
		b0 := pg.Bytes
		sys.Run(run)
		res.Mbps[i] = float64(pg.Bytes-b0) * 8 / 1e6 / run.Seconds()
	}
	snap(0, phase)
	sys.NetSwap.SetOutage(true)
	snap(1, phase)
	res.DegradedDuringOutage = tb.Degraded()
	sys.NetSwap.SetOutage(false)
	snap(2, phase)

	res.Stats = tb.Stats
	sys.Shutdown()
	res.Audit = sys.Obs.AuditLog()
	return res, nil
}
