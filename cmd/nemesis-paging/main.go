// Command nemesis-paging regenerates the paper's experiments; it is the
// repository's one experiment command. The run:
//
//	-fig 7   paging in  (three domains, 10/20/40% disk guarantees)
//	-fig 8   paging out (the "forgetful" stretch driver)
//	-fig 9   file-system isolation (50% FS client vs two pagers)
//	-suite   run the full suite (Table 1, Figs. 7–9, ablations A1–A5,
//	         extensions E1–E7, netswap E8a–c) as independent cells fanned
//	         across -workers goroutines; output order and content are
//	         identical at any worker count. -cells runs only the cells whose
//	         names start with one of its comma-separated prefixes: table1
//	         is Table 1, A the ablations, E the extensions, E8 netswap
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
//	-attribution
//	         run the attribution experiment's two cells through the sweep:
//	         a scaled -fig 7 or 8 run without (base) and with (hog) the
//	         5%-slice hog; the folded profile, each stack prefixed by its
//	         cell, goes to -simprofile, or to stdout without one
//
// The -suite-json and -cluster-json exports use the same spec/result schema
// as the nemesis-serve HTTP API (internal/experiments.Spec/Result): for a
// given spec the CLI file and the daemon's response body are byte-identical.
// The other outputs:
//
//	-timeline out.json
//	         export the run's timeline (figs 7/8/9) as Chrome trace-event
//	         JSON, loadable in ui.perfetto.dev; adds a deterministic
//	         revocation episode to figs 7/8 so revocation phases appear
//	-sched-trace out.tsv
//	         write the measured window's USD scheduler trace (figs 7/8, the
//	         figures' bottom halves) as TSV: one row per transaction, lax
//	         charge or periodic allocation
//	-simprofile out.folded, -svg out.svg
//	         write the exact sim-time attribution profile of the measured
//	         window (figs 7/8, -attribution) in folded-stack form, and
//	         render it as a self-contained flamegraph SVG
//	-metrics, -interval D, -top-json out.json, -registry-json out.json
//	         fault-path telemetry (figs 7/8): append the per-domain table,
//	         crosstalk flags, span hops and metric registry; print the
//	         per-domain table every D of the measured window; write the
//	         final table, or the whole registry, as JSON
//	-cpuprofile/-memprofile
//	         write pprof profiles for performance work; flushed even on
//	         early-exit errors
//
// Every trace is checked against obs.ValidateTrace before its file is
// written. An output flag given to a mode that never writes it (say
// -timeline with -suite) is an error, not a silent no-op.
package main

import (
	"bytes"
	"context"
	"errors"
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

	"nemesis/internal/core"
	"nemesis/internal/experiments"
	"nemesis/internal/experiments/sweep"
	"nemesis/internal/obs"
	"nemesis/internal/sim"
	"nemesis/internal/trace"
)

// stopProfiles flushes any active pprof profiles. All error exits go through
// fatalf so the profiles survive them — log.Fatalf alone would bypass the
// deferred flush.
var stopProfiles = func() {}

func fatalf(format string, args ...any) {
	stopProfiles()
	log.Fatalf(format, args...)
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
	metrics, suite, cluster, attribution            bool
	measure, interval                               time.Duration
	seed                                            int64
	cells, timeline, schedTrace, simprofile, svg    string
	topJSON, registryJSON, suiteJSON                string
	clusterMachines, clusterDomains, clusterServers int
	clusterJSON, clusterTrace                       string
	workers                                         int
	cpuprofile, memprofile                          string
}

// defineFlags registers the command line on fs.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.IntVar(&o.fig, "fig", 7, "figure to regenerate: 7, 8 or 9 (with -attribution: 7 or 8)")
	fs.DurationVar(&o.measure, "measure", 40*time.Second, "measured window of simulated time")
	fs.Int64Var(&o.seed, "seed", 1, "simulation seed")
	fs.BoolVar(&o.metrics, "metrics", false, "enable fault-path telemetry and append span/metric summaries and crosstalk flags (figs 7/8)")
	fs.DurationVar(&o.interval, "interval", 0, "print the per-domain top table every interval of the measured window (figs 7/8; implies telemetry)")
	fs.StringVar(&o.topJSON, "top-json", "", "write the final per-domain top table (rows + rollup) as JSON to this file (figs 7/8)")
	fs.StringVar(&o.registryJSON, "registry-json", "", "write the full telemetry registry snapshot as JSON to this file (figs 7/8)")
	fs.StringVar(&o.timeline, "timeline", "", "write a Perfetto-loadable trace-event JSON timeline to this file (figs 7/8/9)")
	fs.StringVar(&o.schedTrace, "sched-trace", "", "write the measured window's USD scheduler trace as TSV to this file (figs 7/8)")
	fs.StringVar(&o.simprofile, "simprofile", "", "write the folded-stack sim-time attribution profile to this file (figs 7/8, -attribution; implies telemetry)")
	fs.StringVar(&o.svg, "svg", "", "render the attribution profile as a flamegraph SVG to this file (figs 7/8, -attribution)")
	fs.BoolVar(&o.attribution, "attribution", false, "profile the -fig 7 or 8 attribution experiment without and with the 5%-slice hog")
	fs.BoolVar(&o.suite, "suite", false, "run the full experiment suite as parallel deterministic cells")
	fs.StringVar(&o.cells, "cells", "", "with -suite, run only the cells whose names start with one of these comma-separated prefixes (e.g. table1,A,E8)")
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
// -cluster and -attribution given, else the -fig figure. main dispatches on
// it.
func (o *options) mode() string {
	switch {
	case o.suite:
		return "-suite"
	case o.cluster:
		return "-cluster"
	case o.attribution:
		return "-attribution"
	}
	return fmt.Sprintf("-fig %d", o.fig)
}

// outputModes lists, for each output flag, the modes that write it.
var outputModes = map[string][]string{
	"timeline":      {"-fig 7", "-fig 8", "-fig 9"},
	"sched-trace":   {"-fig 7", "-fig 8"},
	"simprofile":    {"-fig 7", "-fig 8", "-attribution"},
	"svg":           {"-fig 7", "-fig 8", "-attribution"},
	"metrics":       {"-fig 7", "-fig 8"},
	"interval":      {"-fig 7", "-fig 8"},
	"top-json":      {"-fig 7", "-fig 8"},
	"registry-json": {"-fig 7", "-fig 8"},
	"suite-json":    {"-suite"},
	"cluster-json":  {"-cluster"},
	"cluster-trace": {"-cluster"},
}

// checkOutputs returns an error naming the first output flag set on fs (in
// lexical order) that o's mode never writes, and the modes that do: that
// run would exit 0 and leave no file. It also rejects a -cells selection
// that is not a suite run's, that would make -suite-json describe less than
// the suite, or that names no cell.
func checkOutputs(fs *flag.FlagSet, o *options) error {
	mode := o.mode()
	var err error
	fs.Visit(func(f *flag.Flag) {
		modes := outputModes[f.Name]
		if err != nil || modes == nil || f.Value.String() == f.DefValue || slices.Contains(modes, mode) {
			return
		}
		err = fmt.Errorf("-%s is written only by %s, not by %s", f.Name, strings.Join(modes, " or "), mode)
	})
	switch {
	case err != nil || o.cells == "":
		return err
	case mode != "-suite":
		return fmt.Errorf("-cells selects -suite cells, not %s runs", mode)
	case o.suiteJSON != "":
		return errors.New("-suite-json writes the whole suite's result, so it takes no -cells")
	}
	_, err = experiments.SuiteCellNames(strings.Split(o.cells, ","))
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

	var err error
	switch o.mode() {
	case "-suite":
		err = runSuite(o)
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
		err = runCluster(experiments.ClusterOptions{
			Machines:          o.clusterMachines,
			DomainsPerMachine: o.clusterDomains,
			Servers:           o.clusterServers,
			Measure:           clusterMeasure,
			Seed:              o.seed,
			Workers:           o.workers,
			Trace:             o.clusterTrace != "",
		}, o.clusterJSON, o.clusterTrace)
	case "-attribution":
		err = runAttribution(o)
	case "-fig 7", "-fig 8":
		err = runPaging(o)
	case "-fig 9":
		err = runFig9(o)
	default:
		err = fmt.Errorf("unknown figure %d", o.fig)
	}
	if err != nil {
		fatalf("nemesis-paging: %v", err)
	}
}

// runPaging runs Fig. 7 or Fig. 8, writes the outputs asked for, and
// prints the sustained bandwidth series (the figure's top half) as TSV with
// its summary ratios.
func runPaging(o *options) error {
	opt := experiments.DefaultPagingOptions()
	opt.Measure = o.measure
	opt.Seed = o.seed
	opt.Forgetful = o.fig == 8
	profile := o.simprofile != "" || o.svg != ""
	opt.Telemetry = o.metrics || profile || o.interval > 0 || o.topJSON != "" || o.registryJSON != ""
	opt.Timeline = o.timeline != ""
	if o.interval > 0 {
		opt.SnapshotEvery = o.interval
		opt.OnSnapshot = func(sys *core.System) {
			fmt.Printf("--- t=%.1fs ---\n", sys.Sim.Now().Seconds())
			if err := sys.WriteTopTable(os.Stdout); err != nil {
				fatalf("nemesis-paging: %v", err)
			}
			fmt.Println()
		}
	}
	r, err := experiments.RunPaging(opt)
	if err != nil {
		return err
	}
	if o.timeline != "" {
		if err := writeTrace(o.timeline, r.Sys.WriteTimeline); err != nil {
			return err
		}
	}
	if o.schedTrace != "" {
		start := sim.Time(r.MeasureStart)
		window := &trace.Log{}
		for _, e := range r.Log.Between(start, start.Add(o.measure)) {
			window.Add(e)
		}
		if err := writeFile(o.schedTrace, window.WriteTSV); err != nil {
			return err
		}
	}
	if profile {
		if err := r.Sys.CheckAttribution(); err != nil {
			return err
		}
		var folded strings.Builder
		if err := r.Sys.WriteAttributionFolded(&folded); err != nil {
			return err
		}
		if err := writeProfile(o, folded.String()); err != nil {
			return err
		}
	}
	if o.topJSON != "" {
		if err := writeFile(o.topJSON, r.Sys.WriteTopJSON); err != nil {
			return err
		}
	}
	if o.registryJSON != "" {
		if err := writeFile(o.registryJSON, r.Sys.Obs.WriteJSON); err != nil {
			return err
		}
	}

	fmt.Printf("# Figure %d: sustained bandwidth (Mbit/s), sampled every %v\n", o.fig, opt.SampleEvery)
	if err := r.Set.WriteTSV(os.Stdout); err != nil {
		return err
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
	if !o.metrics {
		return nil
	}
	fmt.Println("\n# per-domain snapshot:")
	if err := r.Sys.WriteTopTable(os.Stdout); err != nil {
		return err
	}
	if flags := r.Sys.Obs.Flags(); len(flags) > 0 {
		fmt.Printf("\n# crosstalk flags (%d):\n", len(flags))
		if err := r.Sys.Obs.WriteFlagsTSV(os.Stdout); err != nil {
			return err
		}
	}
	fmt.Println("\n# span hop latency breakdown:")
	if err := r.Sys.Obs.WriteSpansTSV(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\n# metric registry:")
	return r.Sys.Obs.WriteMetricsTSV(os.Stdout)
}

// runFig9 runs the file-system isolation experiment and prints its summary.
func runFig9(o *options) error {
	opt := experiments.DefaultFig9Options()
	opt.Measure = o.measure
	opt.Seed = o.seed
	opt.Timeline = o.timeline != ""
	r, err := experiments.RunFig9(opt)
	if err != nil {
		return err
	}
	if o.timeline != "" {
		if err := writeTrace(o.timeline, r.ContendedSys.WriteTimeline); err != nil {
			return err
		}
	}
	fmt.Println("# Figure 9: file-system client isolation")
	fmt.Printf("fs alone:\t%.2f Mbit/s\n", r.AloneMbps)
	fmt.Printf("fs + 2 pagers:\t%.2f Mbit/s\n", r.ContendedMbps)
	fmt.Printf("isolation:\t%.3f (1.0 = perfect)\n", r.Isolation())
	return nil
}

// runAttribution runs the attribution experiment's base and hog cells
// across sweep workers and writes their folded profiles, each under a
// "# cell" header with its stacks prefixed by the cell name, so the
// flamegraph nests by cell. The profile is byte-identical at any worker
// count.
func runAttribution(o *options) error {
	outs, err := sweep.Map(context.Background(), o.workers, []string{"base", "hog"}, func(_ context.Context, name string) (string, error) {
		hog := name == "hog"
		r, err := experiments.RunAttribution(experiments.AttributionOptions{Fig: o.fig, Hog: hog, Measure: o.measure, Seed: o.seed})
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "# cell %s: fig=%d hog=%v measure=%v seed=%d\n", name, o.fig, hog, o.measure, o.seed)
		for _, line := range strings.Split(strings.TrimRight(r.Folded, "\n"), "\n") {
			sb.WriteString(name + ";" + line + "\n")
		}
		return sb.String(), nil
	})
	if err != nil {
		return err
	}
	return writeProfile(o, strings.Join(outs, ""))
}

// writeProfile writes a folded attribution profile to -simprofile (or, in
// -attribution mode without one, to stdout) and renders it to -svg.
func writeProfile(o *options, folded string) error {
	switch {
	case o.simprofile != "":
		if err := writeFile(o.simprofile, func(w io.Writer) error {
			_, err := io.WriteString(w, folded)
			return err
		}); err != nil {
			return err
		}
	case o.attribution:
		fmt.Print(folded)
	}
	if o.svg == "" {
		return nil
	}
	lines, err := obs.ParseFolded(strings.NewReader(folded))
	if err != nil {
		return err
	}
	return writeFile(o.svg, func(w io.Writer) error { return obs.WriteFlameSVG(w, lines) })
}

// writeFile renders into a freshly created file.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace renders a trace-event timeline and checks it against
// obs.ValidateTrace before writing it to path: a render that fails the
// check creates no file.
func writeTrace(path string, render func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		return err
	}
	if err := obs.ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// runCluster runs the cluster paging scenario, prints the deterministic
// per-machine summary, and optionally exports the full result as JSON and
// the merged cross-machine trace. The result carries the normalized spec,
// so the JSON export has the same schema — and for the same spec, the same
// bytes — as the nemesis-serve API; tracing never changes the result bytes.
func runCluster(opt experiments.ClusterOptions, jsonPath, tracePath string) error {
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
		return err
	}
	res, err := experiments.RunCluster(context.Background(), experiments.ClusterOptions{
		Machines:          spec.Machines,
		DomainsPerMachine: spec.DomainsPerMachine,
		Servers:           spec.Servers,
		Measure:           spec.Measure.D(),
		Seed:              spec.Seed,
		Workers:           opt.Workers,
		Trace:             opt.Trace,
	})
	if err != nil {
		return err
	}
	if err := res.WriteSummary(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("# cluster: %.2fs wall\n", time.Since(start).Seconds())
	if jsonPath != "" {
		if err := writeResultJSON(jsonPath, &experiments.Result{Spec: spec, Cluster: res}); err != nil {
			return err
		}
	}
	if tracePath != "" {
		return writeTrace(tracePath, res.Trace.WriteTrace)
	}
	return nil
}

// runSuite fans the suite's cells — all of them, or those -cells selects —
// across sweep workers and prints each cell's summary in fixed suite order,
// optionally exporting the whole suite's API-schema JSON result.
func runSuite(o *options) error {
	workers := o.workers
	if workers <= 0 {
		workers = sweep.Workers()
	}
	start := time.Now()
	spec := experiments.Spec{Kind: experiments.KindSuite, Measure: experiments.Duration(o.measure)}
	if err := spec.Normalize(); err != nil {
		return err
	}
	var prefixes []string
	if o.cells != "" {
		prefixes = strings.Split(o.cells, ",")
	}
	cells, err := experiments.RunSuite(context.Background(), spec.Measure.D(), workers, prefixes)
	if err != nil {
		return err
	}
	for _, c := range cells {
		fmt.Printf("# %s\n%s", c.Name, c.Output)
	}
	fmt.Printf("# suite: %d cells, %d workers, %.2fs wall\n", len(cells), workers, time.Since(start).Seconds())
	if o.suiteJSON != "" {
		return writeResultJSON(o.suiteJSON, &experiments.Result{Spec: spec, Suite: cells})
	}
	return nil
}

// writeResultJSON writes the canonical result encoding — the exact bytes
// nemesis-serve would return for the same spec.
func writeResultJSON(path string, res *experiments.Result) error {
	body, err := experiments.EncodeResult(res)
	if err != nil {
		return err
	}
	return writeFile(path, func(w io.Writer) error {
		_, err := w.Write(body)
		return err
	})
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
