package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"nemesis/internal/atropos"
	"nemesis/internal/core"
	"nemesis/internal/domain"
	"nemesis/internal/experiments/sweep"
	"nemesis/internal/mem"
	"nemesis/internal/netswap"
	"nemesis/internal/obs"
	"nemesis/internal/stretchdrv"
	"nemesis/internal/vm"
)

// ClusterOptions sizes the cluster paging scenario: a set of independent
// machines, each running hundreds to thousands of self-paging domains that
// page remotely to a pool of swap servers with capacity-reserving admission.
// A small hot fraction of the domains pages continuously; the rest touch
// their resident set once and go idle, which is what the indexed scheduler,
// the indexed frames allocator and the incremental crosstalk monitor exist
// for — idle domains must cost nothing per quantum, per allocation and per
// monitoring window.
type ClusterOptions struct {
	// Machines is the number of independent machine cells (default 4).
	Machines int `json:"machines"`
	// DomainsPerMachine is the domain population per machine (default 250).
	DomainsPerMachine int `json:"domains_per_machine"`
	// Servers is the swap-server pool size per machine (default 2).
	Servers int `json:"servers"`
	// HotFraction is the share of domains that page continuously
	// (default 0.1; at least one domain per machine is hot).
	HotFraction float64 `json:"hot_fraction"`
	// HotPeriod is a hot domain's think time between page touches
	// (default 100 ms).
	HotPeriod time.Duration `json:"hot_period_ns"`
	// PagesPerDomain is each domain's virtual stretch size in pages
	// (default 8 — four times the guaranteed frames, so a hot domain's
	// cycle revisits pages it has already cleaned to the remote store).
	PagesPerDomain int `json:"pages_per_domain"`
	// PhysFrames is each domain's guaranteed physical allocation
	// (default 2, the paper's paging application). Contracts carry no
	// optimistic share, so guarantee violations are impossible by
	// construction — and the audit asserts none happen.
	PhysFrames int `json:"phys_frames"`
	// Measure is the simulated run length (default 4 s — long enough at the
	// standard scale for hot domains to wrap their page cycle and re-read
	// pages from the remote store).
	Measure time.Duration `json:"measure_ns"`
	// Seed seeds machine m with Seed+m (default 1).
	Seed int64 `json:"seed"`
	// Workers caps the sweep fan-out (0 = NEMESIS_SWEEP_WORKERS or
	// GOMAXPROCS). Results are identical for any value.
	Workers int `json:"-"`
	// Trace additionally captures every machine's timeline — client fault
	// spans tagged with cross-machine flow IDs, plus a separate registry per
	// swap server observing its service spans — and merges them into
	// ClusterResult.Trace. Tracing observes; it never schedules: the summary
	// numbers (and the result JSON) are identical traced or not, which is why
	// Trace, like Workers, is not part of the result's identity.
	Trace bool `json:"-"`
}

// DefaultClusterOptions returns the standard 1,000-domain cluster:
// 4 machines × 250 domains over 2 servers each.
func DefaultClusterOptions() ClusterOptions {
	return ClusterOptions{
		Machines:          4,
		DomainsPerMachine: 250,
		Servers:           2,
		HotFraction:       0.1,
		HotPeriod:         100 * time.Millisecond,
		PagesPerDomain:    8,
		PhysFrames:        2,
		Measure:           4 * time.Second,
		Seed:              1,
	}
}

func (o *ClusterOptions) fillDefaults() {
	d := DefaultClusterOptions()
	if o.Machines < 1 {
		o.Machines = d.Machines
	}
	if o.DomainsPerMachine < 1 {
		o.DomainsPerMachine = d.DomainsPerMachine
	}
	if o.Servers < 1 {
		o.Servers = d.Servers
	}
	if o.HotFraction <= 0 {
		o.HotFraction = d.HotFraction
	}
	if o.HotPeriod <= 0 {
		o.HotPeriod = d.HotPeriod
	}
	if o.PagesPerDomain < 2 {
		o.PagesPerDomain = d.PagesPerDomain
	}
	if o.PhysFrames < 1 {
		o.PhysFrames = d.PhysFrames
	}
	if o.Measure <= 0 {
		o.Measure = d.Measure
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
}

// ClusterMachine is one machine cell's deterministic summary. Every field
// is a function of the seed and the options alone — no wall-clock — so
// serial and parallel cluster runs are byte-identical.
type ClusterMachine struct {
	Machine      int   `json:"machine"`
	Domains      int   `json:"domains"`
	HotDomains   int   `json:"hot_domains"`
	Events       int64 `json:"sim_events"`
	Faults       int64 `json:"faults"`
	BytesTouched int64 `json:"bytes_touched"`
	RemoteReads  int64 `json:"remote_reads"`
	RemoteWrites int64 `json:"remote_writes"`
	Violations   int   `json:"guarantee_violations"`
	Kills        int   `json:"revocation_kills"`
	Flags        int   `json:"crosstalk_flags"`
	MonitorTicks int64 `json:"monitor_ticks"`

	// Summary is the machine's telemetry rollup, domains prefixed "m<N>/".
	// Carried in memory only: the result serialises one merged rollup, not
	// per-machine copies.
	Summary *obs.Summary `json:"-"`
	// Timelines are the machine's trace lanes (the client machine plus one
	// per swap server), present only on traced runs.
	Timelines []obs.MachineTimeline `json:"-"`
}

// ClusterResult is the whole cluster run.
type ClusterResult struct {
	Options  ClusterOptions   `json:"options"`
	Machines []ClusterMachine `json:"machines"`
	// Summary is the cluster-wide rollup: every machine's Summarize merged
	// in machine order (the merge is order-independent, so any order gives
	// the same bytes) and truncated to the top-K domains once at the end.
	Summary *obs.Summary `json:"summary,omitempty"`
	// Trace is the merged cluster timeline of a traced run — render it with
	// WriteTrace. Not serialised with the result: the CLI and the service
	// write traces to their own artifacts.
	Trace *obs.TimelineDump `json:"-"`
}

// clusterTopK bounds the merged rollup's domain ranking.
const clusterTopK = 10

// Totals sums the machine summaries.
func (r *ClusterResult) Totals() ClusterMachine {
	var t ClusterMachine
	t.Machine = -1
	for _, m := range r.Machines {
		t.Domains += m.Domains
		t.HotDomains += m.HotDomains
		t.Events += m.Events
		t.Faults += m.Faults
		t.BytesTouched += m.BytesTouched
		t.RemoteReads += m.RemoteReads
		t.RemoteWrites += m.RemoteWrites
		t.Violations += m.Violations
		t.Kills += m.Kills
		t.Flags += m.Flags
		t.MonitorTicks += m.MonitorTicks
	}
	return t
}

// RunCluster runs the cluster scenario: each machine is an independent
// deterministic simulation (seeded Seed+machine), fanned out across
// opt.Workers sweep workers and collected in machine order. Workers observe
// ctx between machine cells, and a sweep.WithProgress callback on ctx
// receives per-machine completion events.
func RunCluster(ctx context.Context, opt ClusterOptions) (*ClusterResult, error) {
	opt.fillDefaults()
	machines := make([]int, opt.Machines)
	for i := range machines {
		machines[i] = i
	}
	cells, err := sweep.Map(ctx, opt.Workers, machines, func(_ context.Context, m int) (*ClusterMachine, error) {
		return runClusterMachine(m, opt)
	})
	if err != nil {
		return nil, err
	}
	return assembleCluster(opt, cells), nil
}

// assembleCluster folds machine cells (in machine order) into the result:
// the per-machine rollups merge into one cluster summary, and on traced runs
// the per-machine timeline lanes merge into one cluster dump.
func assembleCluster(opt ClusterOptions, cells []*ClusterMachine) *ClusterResult {
	res := &ClusterResult{Options: opt}
	sum := &obs.Summary{}
	var lanes []obs.MachineTimeline
	for _, c := range cells {
		res.Machines = append(res.Machines, *c)
		sum.Merge(c.Summary)
		lanes = append(lanes, c.Timelines...)
	}
	sum.Truncate(sum.TopK)
	res.Summary = sum
	if opt.Trace {
		res.Trace = obs.MergeTimelines(lanes)
	}
	return res
}

// runClusterMachine builds and runs one machine: N self-paging domains,
// each placed on the machine's swap-server pool under byte-reserving
// admission, a hot minority paging continuously, and the incremental
// crosstalk monitor watching all of them.
func runClusterMachine(machine int, opt ClusterOptions) (*ClusterMachine, error) {
	n := opt.DomainsPerMachine
	pageBytes := int64(vm.PageSize)
	stretchBytes := int64(opt.PagesPerDomain) * pageBytes

	cfg := core.DefaultConfig()
	cfg.Seed = opt.Seed + int64(machine)
	cfg.Telemetry = true
	cfg.MemoryFrames = n*opt.PhysFrames + 256
	sys := core.New(cfg)

	// The pool: Servers fabrics sized so the byte-reserving admission of
	// every domain's stretch succeeds with a little headroom. The servers
	// share the machine's simulated clock but nothing else.
	ns := netswap.DefaultConfig()
	ns.Server.StoreBytes = (int64(n)*stretchBytes)/int64(opt.Servers) + 2*stretchBytes
	ns.Remote.Timeout = 2 * time.Second
	ns.Remote.MaxRetries = -1
	pool, err := netswap.NewPool(sys.Sim, sys.Obs, opt.Servers, ns)
	if err != nil {
		return nil, err
	}
	if opt.Trace {
		// Disjoint flow-ID bases keep every machine's flows unique in the
		// merged trace; each swap server gets its own registry — it is its
		// own machine, sharing only the simulated clock.
		sys.Obs.SetFlowBase(uint64(machine+1) << 32)
		for i := 0; i < pool.Servers(); i++ {
			pool.Fabric(i).Server.SetObs(obs.NewRegistry(sys.Sim.Now))
		}
	}

	hot := int(float64(n) * opt.HotFraction)
	if hot < 1 {
		hot = 1
	}
	cpuQoS := atropos.QoS{
		P: 100 * time.Millisecond,
		S: 90 * time.Millisecond / time.Duration(n),
		X: true,
	}
	if cpuQoS.S <= 0 {
		cpuQoS.S = time.Microsecond
	}

	cell := &ClusterMachine{Machine: machine, Domains: n, HotDomains: hot}
	var bytesTouched int64
	doms := make([]*domain.Domain, 0, n)
	for i := 0; i < n; i++ {
		// Domains are named machine-locally ("d0"…); the machine lane
		// ("m0") qualifies them in merged artifacts.
		name := fmt.Sprintf("d%d", i)
		dom, err := sys.NewDomain(name, cpuQoS, mem.Contract{Guaranteed: uint64(opt.PhysFrames)})
		if err != nil {
			return nil, fmt.Errorf("cluster: admit %s: %w", name, err)
		}
		st, err := dom.NewStretch(uint64(stretchBytes))
		if err != nil {
			return nil, err
		}
		rb, err := pool.Place(name, name, stretchBytes)
		if err != nil {
			return nil, fmt.Errorf("cluster: place %s: %w", name, err)
		}
		if _, err := stretchdrv.NewPaged(dom, st, rb, stretchdrv.PagerOptions{}); err != nil {
			return nil, err
		}
		doms = append(doms, dom)

		base := st.Base()
		physFrames := opt.PhysFrames
		if i < hot {
			// Hot: page one page per think period forever, cycling through
			// a stretch much larger than the resident set.
			pages := opt.PagesPerDomain
			period := opt.HotPeriod
			dom.Go("hot", func(t *domain.Thread) {
				if err := core.PreallocateFrames(t, physFrames); err != nil {
					return
				}
				for off := 0; ; off = (off + 1) % pages {
					if err := t.Touch(base+vm.VA(int64(off)*pageBytes), int(pageBytes), vm.AccessWrite); err != nil {
						return
					}
					bytesTouched += pageBytes
					t.Sleep(period)
				}
			})
			continue
		}
		// Idle: fault the resident set in (plus one page, so one eviction
		// proves the remote placement works end to end), then go silent —
		// from here on the domain must cost the schedulers and the monitor
		// nothing.
		once := physFrames + 1
		dom.Go("idle", func(t *domain.Thread) {
			if err := core.PreallocateFrames(t, physFrames); err != nil {
				return
			}
			for p := 0; p < once; p++ {
				if err := t.Touch(base+vm.VA(int64(p)*pageBytes), int(pageBytes), vm.AccessWrite); err != nil {
					return
				}
				bytesTouched += pageBytes
			}
		})
	}

	mon := sys.StartCrosstalkMonitor(obs.DefaultCrosstalkConfig())
	sys.Run(opt.Measure)
	pool.Stop()
	sys.Shutdown()

	for _, d := range doms {
		cell.Faults += d.Stats().Faults
	}
	cell.BytesTouched = bytesTouched
	cell.Events = sys.Sim.Dispatched()
	for i := 0; i < pool.Servers(); i++ {
		st := pool.Fabric(i).Server.Stats
		cell.RemoteReads += st.Reads
		cell.RemoteWrites += st.Writes
	}
	cell.Violations = len(sys.Obs.AuditByKind(obs.AuditGuaranteeViolation))
	cell.Kills = len(sys.Obs.AuditByKind(obs.AuditRevokeKill))
	cell.Flags = len(sys.Obs.Flags())
	if mon != nil {
		cell.MonitorTicks = mon.Ticks()
	}
	collectClusterObs(cell, machine, sys.Obs, pool, opt.Trace)
	return cell, nil
}

// collectClusterObs captures one finished machine's rollup and — on traced
// runs — its timeline lanes: the client machine ("m2") plus one lane per
// swap server ("m2.swap0").
func collectClusterObs(cell *ClusterMachine, machine int, reg *obs.Registry, pool *netswap.Pool, trace bool) {
	lane := fmt.Sprintf("m%d", machine)
	sum := reg.Summarize(clusterTopK)
	sum.Prefix(lane + "/")
	cell.Summary = sum
	if !trace {
		return
	}
	cell.Timelines = append(cell.Timelines, obs.MachineTimeline{Machine: lane, Dump: obs.Timeline{Reg: reg}.Dump()})
	for i := 0; i < pool.Servers(); i++ {
		if sreg := pool.Fabric(i).Server.Obs(); sreg != nil {
			cell.Timelines = append(cell.Timelines, obs.MachineTimeline{
				Machine: fmt.Sprintf("%s.swap%d", lane, i),
				Dump:    obs.Timeline{Reg: sreg}.Dump(),
			})
		}
	}
}

// WriteSummary renders the per-machine table plus totals. The output is a
// pure function of the options and seed (serial and parallel runs agree
// byte for byte), which is what the CI smoke job diffs.
func (r *ClusterResult) WriteSummary(w io.Writer) error {
	fmt.Fprintf(w, "cluster: %d machines x %d domains (%d hot), %d swap servers/machine, measure %s, seed %d\n",
		r.Options.Machines, r.Options.DomainsPerMachine, r.Totals().HotDomains/r.Options.Machines,
		r.Options.Servers, r.Options.Measure, r.Options.Seed)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "MACHINE\tDOMAINS\tHOT\tEVENTS\tFAULTS\tKB\tRD\tWR\tVIOL\tKILL\tFLAGS\tTICKS\t\n")
	row := func(label string, m ClusterMachine) {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t\n",
			label, m.Domains, m.HotDomains, m.Events, m.Faults, m.BytesTouched/1024,
			m.RemoteReads, m.RemoteWrites, m.Violations, m.Kills, m.Flags, m.MonitorTicks)
	}
	for _, m := range r.Machines {
		row(fmt.Sprintf("m%d", m.Machine), m)
	}
	row("total", r.Totals())
	if err := tw.Flush(); err != nil {
		return err
	}
	if r.Summary != nil {
		fmt.Fprintln(w)
		if err := r.Summary.WriteText(w); err != nil {
			return err
		}
	}
	return nil
}
