// Command nemesis-paging regenerates the paper's paging experiments:
//
//	-fig 7   paging in  (three domains, 10/20/40% disk guarantees)
//	-fig 8   paging out (the "forgetful" stretch driver)
//	-fig 9   file-system isolation (50% FS client vs two pagers)
//	-fig 0   run every ablation (laxity, FCFS, crosstalk, slack, revocation)
//	-ext     run the extensions (pipeline depth, second chance, guarded
//	         page table, stream paging)
//	-e8 sweep|outage|degrade|all
//	         run the netswap experiments (remote paging over a simulated
//	         network: latency/loss sweep, outage isolation, tiered
//	         degradation)
//	-suite   run the full suite (Table 1, Figs. 7–9, ablations, extensions,
//	         netswap) as independent cells fanned across -workers goroutines;
//	         output order and content are identical at any worker count
//	-cluster run the cluster paging scenario: -cluster-machines independent
//	         machines × -cluster-domains self-paging domains each, paging
//	         remotely to a pool of -cluster-servers swap servers per machine
//	         under byte-reserving admission; prints the per-machine summary
//	         table (byte-identical at any -workers count) and optionally
//	         exports the full result as JSON with -cluster-json; with
//	         -cluster-trace it also records every machine's timeline and
//	         writes ONE merged Perfetto trace — a process lane per machine
//	         and per swap server, with flow arrows linking each client
//	         net.out hop to the server-side service slice it triggered
//
// The -suite-json and -cluster-json exports use the same spec/result schema
// as the nemesis-serve HTTP API (internal/experiments.Spec/Result): for a
// given spec the CLI file and the daemon's response body are byte-identical.
//
//	-timeline out.json
//	         export the run's timeline (figs 7/8/9) as Chrome trace-event
//	         JSON, loadable in ui.perfetto.dev; adds a deterministic
//	         revocation episode to figs 7/8 so revocation phases appear
//	-simprofile out.folded
//	         write the exact sim-time attribution profile of the measured
//	         window (figs 7/8) in folded-stack form; render it with
//	         nemesis-flame -in
//	-cpuprofile/-memprofile
//	         write pprof profiles for performance work; flushed even on
//	         early-exit errors
//
// An output flag given to a mode that never writes it (say -timeline with
// -suite) is an error, not a silent no-op.
//
// The top halves of Figs. 7/8 (sustained bandwidth series) print as TSV;
// summary ratios follow. Use nemesis-trace for the bottom halves.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"nemesis/internal/experiments"
	"nemesis/internal/experiments/sweep"
)

// stopProfiles flushes any active pprof profiles. All error exits go through
// fatalf/fatal so the profiles survive them — log.Fatalf alone would bypass
// the deferred flush.
var stopProfiles = func() {}

func fatalf(format string, args ...any) {
	stopProfiles()
	log.Fatalf(format, args...)
}

func fatal(v ...any) {
	stopProfiles()
	log.Fatal(v...)
}

// startProfiles begins the requested pprof captures and returns an
// idempotent flush: stop the CPU profile, then collect garbage and write the
// heap profile, closing both files.
func startProfiles(cpupath, mempath string) func() {
	var cpuf *os.File
	if cpupath != "" {
		f, err := os.Create(cpupath)
		if err != nil {
			fatalf("nemesis-paging: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("nemesis-paging: %v", err)
		}
		cpuf = f
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			if cpuf != nil {
				pprof.StopCPUProfile()
				cpuf.Close()
			}
			if mempath == "" {
				return
			}
			f, err := os.Create(mempath)
			if err != nil {
				log.Printf("nemesis-paging: %v", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("nemesis-paging: %v", err)
			}
		})
	}
}

// options holds the command line.
type options struct {
	fig                                             int
	ext, metrics, suite, cluster                    bool
	measure                                         time.Duration
	seed                                            int64
	e8, timeline, simprofile, suiteJSON             string
	clusterMachines, clusterDomains, clusterServers int
	clusterJSON, clusterTrace                       string
	workers                                         int
	cpuprofile, memprofile                          string
}

// defineFlags registers the command line on fs.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.IntVar(&o.fig, "fig", 7, "figure to regenerate: 7, 8, 9, or 0 for ablations")
	fs.BoolVar(&o.ext, "ext", false, "run the extension experiments instead")
	fs.DurationVar(&o.measure, "measure", 40*time.Second, "measured window of simulated time")
	fs.Int64Var(&o.seed, "seed", 1, "simulation seed")
	fs.BoolVar(&o.metrics, "metrics", false, "enable fault-path telemetry and append span/metric summaries (figs 7/8)")
	fs.StringVar(&o.e8, "e8", "", "netswap experiment: sweep, outage, degrade, or all")
	fs.StringVar(&o.timeline, "timeline", "", "write a Perfetto-loadable trace-event JSON timeline to this file (figs 7/8/9)")
	fs.StringVar(&o.simprofile, "simprofile", "", "write the folded-stack sim-time attribution profile to this file (figs 7/8; implies telemetry)")
	fs.BoolVar(&o.suite, "suite", false, "run the full experiment suite as parallel deterministic cells")
	fs.StringVar(&o.suiteJSON, "suite-json", "", "write the full suite result as JSON to this file (same schema and bytes as the nemesis-serve API)")
	fs.BoolVar(&o.cluster, "cluster", false, "run the cluster paging scenario (N machines x M self-paging domains over a swap-server pool)")
	fs.IntVar(&o.clusterMachines, "cluster-machines", 0, "cluster machine count (0 = default 4)")
	fs.IntVar(&o.clusterDomains, "cluster-domains", 0, "domains per cluster machine (0 = default 250)")
	fs.IntVar(&o.clusterServers, "cluster-servers", 0, "swap servers per cluster machine (0 = default 2)")
	fs.StringVar(&o.clusterJSON, "cluster-json", "", "write the full cluster result as JSON to this file")
	fs.StringVar(&o.clusterTrace, "cluster-trace", "", "write the merged cross-machine Perfetto trace (client + swap-server lanes with flow arrows) to this file")
	fs.IntVar(&o.workers, "workers", 0, "sweep fan-out width (0 = NEMESIS_SWEEP_WORKERS or GOMAXPROCS)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	return o
}

// mode names the run the command line selects: the first of -suite,
// -cluster, -ext and -e8 given, else the -fig figure. main dispatches on it.
func (o *options) mode() string {
	switch {
	case o.suite:
		return "-suite"
	case o.cluster:
		return "-cluster"
	case o.ext:
		return "-ext"
	case o.e8 != "":
		return "-e8"
	}
	return fmt.Sprintf("-fig %d", o.fig)
}

// outputModes lists, for each output flag, the modes that write it.
var outputModes = map[string][]string{
	"timeline":      {"-fig 7", "-fig 8", "-fig 9"},
	"simprofile":    {"-fig 7", "-fig 8"},
	"metrics":       {"-fig 7", "-fig 8"},
	"suite-json":    {"-suite"},
	"cluster-json":  {"-cluster"},
	"cluster-trace": {"-cluster"},
}

// checkOutputs returns an error naming the first output flag set on fs (in
// lexical order) that o's mode never writes, and the modes that do: that
// run would exit 0 and leave no file.
func checkOutputs(fs *flag.FlagSet, o *options) error {
	mode := o.mode()
	var err error
	fs.Visit(func(f *flag.Flag) {
		modes := outputModes[f.Name]
		if v := f.Value.String(); err != nil || modes == nil || v == "" || v == "false" || slices.Contains(modes, mode) {
			return
		}
		err = fmt.Errorf("-%s is written only by %s, not by %s", f.Name, strings.Join(modes, " or "), mode)
	})
	return err
}

func main() {
	log.SetFlags(0)
	o := defineFlags(flag.CommandLine)
	flag.Parse()
	if err := checkOutputs(flag.CommandLine, o); err != nil {
		log.Fatalf("nemesis-paging: %v", err)
	}

	if o.cpuprofile != "" || o.memprofile != "" {
		stopProfiles = startProfiles(o.cpuprofile, o.memprofile)
		defer stopProfiles()
	}

	switch o.mode() {
	case "-suite":
		runSuite(o.measure, o.workers, o.suiteJSON)

	case "-cluster":
		// The cluster's own 2 s default applies unless -measure was given
		// explicitly: the scenario is sized in domains, not window length,
		// and the figures' 40 s default would just multiply the run time.
		clusterMeasure := time.Duration(0)
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "measure" {
				clusterMeasure = o.measure
			}
		})
		runCluster(experiments.ClusterOptions{
			Machines:          o.clusterMachines,
			DomainsPerMachine: o.clusterDomains,
			Servers:           o.clusterServers,
			Measure:           clusterMeasure,
			Seed:              o.seed,
			Workers:           o.workers,
			Trace:             o.clusterTrace != "",
		}, o.clusterJSON, o.clusterTrace)

	case "-ext":
		runExtensions(o.measure)

	case "-e8":
		runNetswap(o.e8, o.measure)

	case "-fig 7", "-fig 8":
		opt := experiments.DefaultPagingOptions()
		opt.Measure = o.measure
		opt.Seed = o.seed
		if o.fig == 8 {
			opt.Write = true
			opt.Forgetful = true
		}
		opt.Telemetry = o.metrics || o.simprofile != ""
		opt.Timeline = o.timeline != ""
		r, err := experiments.RunPaging(opt)
		if err != nil {
			fatalf("nemesis-paging: %v", err)
		}
		if o.timeline != "" {
			writeFile(o.timeline, r.Sys.WriteTimeline)
		}
		if o.simprofile != "" {
			if err := r.Sys.CheckAttribution(); err != nil {
				fatalf("nemesis-paging: %v", err)
			}
			writeFile(o.simprofile, r.Sys.WriteAttributionFolded)
		}
		fmt.Printf("# Figure %d: sustained bandwidth (Mbit/s), sampled every %v\n", o.fig, opt.SampleEvery)
		if err := r.Set.WriteTSV(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Printf("\n# mean Mbit/s over measured window: ")
		for i, m := range r.MeanMbps {
			if i > 0 {
				fmt.Printf(" : ")
			}
			fmt.Printf("%.2f", m)
		}
		fmt.Printf("\n# consecutive ratios (want ~2.0 each for 10/20/40%% contracts): %v\n", fmtRatios(r.Ratios()))
		fmt.Printf("# max single lax charge per client (s) — must stay <= 0.010:\n")
		for _, e := range sortedEntries(r.Log.MaxLax()) {
			fmt.Printf("#   %s\t%.4f\n", e.k, e.v)
		}
		if o.metrics {
			fmt.Println("\n# per-domain snapshot:")
			if err := r.Sys.WriteTopTable(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Println("\n# span hop latency breakdown:")
			if err := r.Sys.Obs.WriteSpansTSV(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Println("\n# metric registry:")
			if err := r.Sys.Obs.WriteMetricsTSV(os.Stdout); err != nil {
				fatal(err)
			}
		}

	case "-fig 9":
		opt := experiments.DefaultFig9Options()
		opt.Measure = o.measure
		opt.Seed = o.seed
		opt.Timeline = o.timeline != ""
		r, err := experiments.RunFig9(opt)
		if err != nil {
			fatalf("nemesis-paging: %v", err)
		}
		if o.timeline != "" {
			writeFile(o.timeline, r.ContendedSys.WriteTimeline)
		}
		fmt.Println("# Figure 9: file-system client isolation")
		fmt.Printf("fs alone:\t%.2f Mbit/s\n", r.AloneMbps)
		fmt.Printf("fs + 2 pagers:\t%.2f Mbit/s\n", r.ContendedMbps)
		fmt.Printf("isolation:\t%.3f (1.0 = perfect)\n", r.Isolation())

	case "-fig 0":
		runAblations(o.measure)

	default:
		fatalf("nemesis-paging: unknown figure %d", o.fig)
	}
}

// writeFile renders into a freshly created file, exiting (with profiles
// flushed) on any failure.
func writeFile(path string, render func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatalf("nemesis-paging: %v", err)
	}
	if err := render(f); err != nil {
		f.Close()
		fatalf("nemesis-paging: %v", err)
	}
	if err := f.Close(); err != nil {
		fatalf("nemesis-paging: %v", err)
	}
}

// runCluster runs the cluster paging scenario, prints the deterministic
// per-machine summary, and optionally exports the full result as JSON and
// the merged cross-machine trace. The result carries the normalized spec,
// so the JSON export has the same schema — and for the same spec, the same
// bytes — as the nemesis-serve API; tracing never changes the result bytes.
func runCluster(opt experiments.ClusterOptions, jsonPath, tracePath string) {
	start := time.Now()
	spec := experiments.Spec{
		Kind:              experiments.KindCluster,
		Machines:          opt.Machines,
		DomainsPerMachine: opt.DomainsPerMachine,
		Servers:           opt.Servers,
		Measure:           experiments.Duration(opt.Measure),
		Seed:              opt.Seed,
	}
	if err := spec.Normalize(); err != nil {
		fatalf("nemesis-paging: %v", err)
	}
	res, err := experiments.RunClusterContext(context.Background(), experiments.ClusterOptions{
		Machines:          spec.Machines,
		DomainsPerMachine: spec.DomainsPerMachine,
		Servers:           spec.Servers,
		Measure:           spec.Measure.D(),
		Seed:              spec.Seed,
		Workers:           opt.Workers,
		Trace:             opt.Trace,
	})
	if err != nil {
		fatalf("nemesis-paging: %v", err)
	}
	if err := res.WriteSummary(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Printf("# cluster: %.2fs wall\n", time.Since(start).Seconds())
	if jsonPath != "" {
		writeResultJSON(jsonPath, &experiments.Result{Spec: spec, Cluster: res})
	}
	if tracePath != "" {
		writeFile(tracePath, res.Trace.WriteTrace)
	}
}

// runSuite fans the whole experiment suite across sweep workers and prints
// each cell's summary in fixed suite order, optionally exporting the
// API-schema JSON result.
func runSuite(measure time.Duration, workers int, jsonPath string) {
	if workers <= 0 {
		workers = sweep.Workers()
	}
	start := time.Now()
	spec := experiments.Spec{
		Kind:    experiments.KindSuite,
		Measure: experiments.Duration(measure),
	}
	out, err := experiments.RunSpec(context.Background(), spec, workers)
	if err != nil {
		fatalf("nemesis-paging: %v", err)
	}
	cells := out.Result.Suite
	for _, c := range cells {
		fmt.Printf("# %s\n%s", c.Name, c.Output)
	}
	fmt.Printf("# suite: %d cells, %d workers, %.2fs wall\n", len(cells), workers, time.Since(start).Seconds())
	if jsonPath != "" {
		writeResultJSON(jsonPath, out.Result)
	}
}

// writeResultJSON writes the canonical result encoding — the exact bytes
// nemesis-serve would return for the same spec.
func writeResultJSON(path string, res *experiments.Result) {
	body, err := experiments.EncodeResult(res)
	if err != nil {
		fatal(err)
	}
	writeFile(path, func(w io.Writer) error {
		_, err := w.Write(body)
		return err
	})
}

func runAblations(measure time.Duration) {
	if measure > 15*time.Second {
		measure = 15 * time.Second // ablations need no more
	}
	lx, err := experiments.AblationLaxity(measure)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("A1 laxity:      with=%v  without=%v  txns/period without=%v\n",
		fmtF(lx.WithLaxityMbps), fmtF(lx.WithoutLaxityMbps), fmtF(lx.TxnsPerPeriodWithout))
	fc, err := experiments.AblationFCFS(measure)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("A2 fcfs disk:   atropos=%v  fcfs=%v\n", fmtF(fc.AtroposMbps), fmtF(fc.FCFSMbps))
	ct, err := experiments.AblationCrosstalk(measure)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("A3 crosstalk:   self-paging %.2f->%.2f Mbit/s (iso %.2f)  external pager %.2f->%.2f (iso %.2f)\n",
		ct.SelfAloneMbps, ct.SelfContendedMbps, ct.SelfIsolation(),
		ct.ExtAloneMbps, ct.ExtContendedMbps, ct.ExtIsolation())
	sl, err := experiments.AblationSlack(measure)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("A4 slack flag:  x=true %.2f Mbit/s  x=false %.2f Mbit/s\n", sl.XTrueMbps, sl.XFalseMbps)
	rv, err := experiments.AblationRevocation()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("A5 revocation:  transparent %.3f ms  intrusive %.3f ms\n", rv.TransparentMs, rv.IntrusiveMs)
}

func runExtensions(measure time.Duration) {
	if measure > 15*time.Second {
		measure = 15 * time.Second
	}
	pd, err := experiments.ExtensionPipelineDepth([]int{1, 2, 4, 8, 16}, measure)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("E1 pipeline depth: %v -> %v Mbit/s\n", pd.Depths, fmtF(pd.Mbps))
	ev, err := experiments.ExtensionSecondChance(measure)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("E2 eviction:       fifo %.1f ins/MB (%.1f Mbit/s)  second-chance %.1f ins/MB (%.1f Mbit/s)\n",
		ev.FIFOPageInsPerMB, ev.FIFOMbps, ev.SecondChancePageInsPerMB, ev.SecondChanceMbps)
	gpt, err := experiments.ExtensionGuardedPT()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("E3 guarded PT:     linear %.2fus  guarded %.2fus  (%.1fx slower; paper: ~3x)\n",
		gpt.LinearUS, gpt.GuardedUS, gpt.Slowdown())
	sp, err := experiments.ExtensionStreamPaging(measure)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("E4 stream paging:  demand %.2f Mbit/s  streaming %.2f Mbit/s  (%.2fx; prefetch accuracy %d/%d)\n",
		sp.DemandMbps, sp.StreamingMbps, sp.Speedup(), sp.PrefetchedUsed, sp.Prefetches)
	rb, err := experiments.ExtensionRebalance(measure)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("E5 rebalancer:     worker %.2f -> %.2f Mbit/s (%.1fx; frames %d -> %d, %d moves)\n",
		rb.WithoutMbps, rb.WithMbps, rb.Speedup(), rb.WorkerFramesWithout, rb.WorkerFramesWith, rb.Moves)
	mj, err := experiments.MotivationMJPEG(measure)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("E6 mjpeg player:   QoS miss %.1f%% jitter %.2fms   conventional miss %.1f%% jitter %.2fms\n",
		100*mj.QoSMissRate, mj.QoSJitterMs, 100*mj.FCFSMissRate, mj.FCFSJitterMs)
}

func runNetswap(which string, measure time.Duration) {
	if measure > 15*time.Second {
		measure = 15 * time.Second
	}
	all := which == "all"
	ran := false
	if all || which == "sweep" {
		ran = true
		latencies := []time.Duration{200 * time.Microsecond, time.Millisecond, 2 * time.Millisecond}
		losses := []float64{0, 0.05}
		res, err := experiments.RunNetswapSweep(latencies, losses, measure)
		if err != nil {
			fatal(err)
		}
		fmt.Println("# E8a netswap sweep: fault-latency breakdown vs link latency and loss")
		fmt.Println("latency\tloss\tMbit/s\tnet.out p50/p95 ms\tstore p50/p95 ms\tnet.back p50/p95 ms\trpcs\tretries\ttimeouts")
		for _, c := range res.Cells {
			fmt.Printf("%v\t%.2f\t%.2f\t%.3f/%.3f\t%.3f/%.3f\t%.3f/%.3f\t%d\t%d\t%d\n",
				c.Latency, c.Loss, c.Mbps,
				c.NetOutP50Ms, c.NetOutP95Ms, c.StoreP50Ms, c.StoreP95Ms,
				c.NetBackP50Ms, c.NetBackP95Ms, c.RPCs, c.Retries, c.Timeouts)
		}
	}
	if all || which == "outage" {
		ran = true
		res, err := experiments.RunNetswapOutage(measure / 3)
		if err != nil {
			fatal(err)
		}
		fmt.Println("# E8b netswap outage isolation: Mbit/s before/during/after a remote outage")
		fmt.Printf("local (swap disk):\t%v\n", fmtF(res.LocalMbps[:]))
		fmt.Printf("remote (netswap):\t%v\n", fmtF(res.RemoteMbps[:]))
		fmt.Printf("crosstalk flags: %d (monitor ticks: %d)\n", len(res.Flags), res.MonitorTicks)
		for _, f := range res.Flags {
			fmt.Printf("  FLAG %+v\n", f)
		}
	}
	if all || which == "degrade" {
		ran = true
		res, err := experiments.RunNetswapDegrade(measure / 3)
		if err != nil {
			fatal(err)
		}
		fmt.Println("# E8c netswap tiered degradation: Mbit/s before/during/after a remote outage")
		fmt.Printf("tiered domain:\t%v\tdegraded during outage: %v\n", fmtF(res.Mbps[:]), res.DegradedDuringOutage)
		fmt.Printf("demotions %d  local fallbacks %d  deadline misses %d  degraded entries %d  local hits %d\n",
			res.Stats.Demotions, res.Stats.LocalFallbacks, res.Stats.DeadlineMisses,
			res.Stats.DegradedEntries, res.Stats.LocalHits)
	}
	if !ran {
		fatalf("nemesis-paging: unknown -e8 experiment %q (want sweep, outage, degrade or all)", which)
	}
}

func fmtRatios(rs []float64) string {
	s := ""
	for i, r := range rs {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%.2f", r)
	}
	return s
}

func fmtF(fs []float64) string {
	s := "["
	for i, f := range fs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.2f", f)
	}
	return s + "]"
}

type kv struct {
	k string
	v float64
}

// sortedEntries returns map entries in key order for deterministic output.
func sortedEntries(m map[string]float64) []kv {
	var kvs []kv
	for k, v := range m {
		kvs = append(kvs, kv{k, v})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	return kvs
}
