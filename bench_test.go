// Package nemesis's root benchmark harness regenerates every table and
// figure of the paper's evaluation as a testing.B benchmark. Each benchmark
// runs the corresponding experiment on the simulated machine and reports
// the paper's metric via b.ReportMetric:
//
//	BenchmarkTable1*          sim_us_per_op — Table 1 micro-benchmarks
//	BenchmarkFig7PagingIn     mbps_* and ratio_* — Fig. 7
//	BenchmarkFig8PagingOut    mbps_* and txn_ms — Fig. 8
//	BenchmarkFig8Attribution  sim_attr_us_* — the hog's exact time breakdown
//	BenchmarkFig9Isolation    isolation — Fig. 9
//	BenchmarkAblation*        the A1–A5 ablations from DESIGN.md
//
// Wall-clock ns/op measures the simulator's own cost; the scientific
// results are the reported metrics.
package nemesis

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"nemesis/internal/experiments"
	"nemesis/internal/obs"
	"nemesis/internal/stretchdrv"
)

// table1Rows runs the micro-benchmarks once per call.
func table1Rows(b *testing.B) map[string]experiments.Table1Row {
	b.Helper()
	rows, err := experiments.Table1()
	if err != nil {
		b.Fatal(err)
	}
	m := make(map[string]experiments.Table1Row, len(rows))
	for _, r := range rows {
		m[r.Name] = r
	}
	return m
}

func benchTable1(b *testing.B, name string) {
	b.ReportAllocs()
	var last experiments.Table1Row
	for i := 0; i < b.N; i++ {
		last = table1Rows(b)[name]
	}
	b.ReportMetric(last.NemesisUS, "sim_us/op")
	if last.AltUS > 0 {
		b.ReportMetric(last.AltUS, "sim_us_pd/op")
	}
	if last.OSF1US > 0 {
		b.ReportMetric(last.OSF1US, "osf1_us/op")
	}
}

func BenchmarkTable1Dirty(b *testing.B)   { benchTable1(b, "dirty") }
func BenchmarkTable1Prot1(b *testing.B)   { benchTable1(b, "(un)prot1") }
func BenchmarkTable1Prot100(b *testing.B) { benchTable1(b, "(un)prot100") }
func BenchmarkTable1Trap(b *testing.B)    { benchTable1(b, "trap") }
func BenchmarkTable1Appel1(b *testing.B)  { benchTable1(b, "appel1") }
func BenchmarkTable1Appel2(b *testing.B)  { benchTable1(b, "appel2") }

// benchPagingOpts is the scaled-down configuration benchmarks use: smaller
// stretches and a shorter window keep one iteration under a second of wall
// time while preserving every scheduling effect.
func benchPagingOpts() experiments.PagingOptions {
	opt := experiments.DefaultPagingOptions()
	opt.VirtBytes = 2 << 20
	opt.Measure = 10 * time.Second
	opt.SampleEvery = 2 * time.Second
	return opt
}

func BenchmarkFig7PagingIn(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.PagingResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunPaging(benchPagingOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for i, m := range last.MeanMbps {
		b.ReportMetric(m, fmt.Sprintf("mbps_app%d", i+1))
	}
	for i, r := range last.Ratios() {
		b.ReportMetric(r, fmt.Sprintf("ratio_%d", i+1))
	}
}

func BenchmarkFig8PagingOut(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.PagingResult
	for i := 0; i < b.N; i++ {
		opt := benchPagingOpts()
		opt.Forgetful = true
		r, err := experiments.RunPaging(opt)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for i, m := range last.MeanMbps {
		b.ReportMetric(m, fmt.Sprintf("mbps_app%d", i+1))
	}
	var n int
	var sum float64
	for _, e := range last.Log.Events() {
		if e.Kind == 0 {
			n++
			sum += e.End.Sub(e.Start).Seconds()
		}
	}
	if n > 0 {
		b.ReportMetric(sum/float64(n)*1e3, "txn_ms")
	}
}

func BenchmarkFig8Attribution(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.AttributionResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAttribution(experiments.AttributionOptions{
			Fig: 8, Hog: true, Measure: 8 * time.Second, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	// The hog's exact time breakdown: deterministic sim metrics, so any
	// drift means the attribution or the scheduler changed behaviour.
	hog, ok := last.ProfileFor("hog-5%")
	if !ok {
		b.Fatal("hog profile missing")
	}
	for _, st := range obs.AttrStates {
		b.ReportMetric(float64(hog.Total(st).Microseconds()),
			"sim_attr_us_"+strings.ReplaceAll(st.String(), "-", "_"))
	}
	b.ReportMetric(float64(hog.Elapsed().Microseconds()), "sim_attr_us_elapsed")
}

func BenchmarkFig9Isolation(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		opt := experiments.DefaultFig9Options()
		opt.Measure = 15 * time.Second
		r, err := experiments.RunFig9(opt)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.AloneMbps, "mbps_alone")
	b.ReportMetric(last.ContendedMbps, "mbps_contended")
	b.ReportMetric(last.Isolation(), "isolation")
}

// BenchmarkFork prices the checkpoint itself: one warmed Fig. 7 world,
// forked once per iteration. ns/op is the wall-clock cost of a fork — what
// a nemesis-serve warm-pool hit pays instead of re-running the warm-up —
// and the sim_fork_* metrics are the fork's deterministic copy accounting:
// frame-store bytes copied outright and populated disk chunks shared
// copy-on-write. The shared chunks include ones written only with zeros,
// which point at the disk package's zero chunk and own no bytes, so
// sim_fork_cow_bytes counts 256 KB per shared chunk: an upper bound on the
// copying sharing avoided, not a measure of it. Those counts are pinned by
// the gate; if they drift, the snapshot either started copying what it used
// to share or stopped capturing state.
func BenchmarkFork(b *testing.B) {
	warm, err := experiments.WarmPaging(benchPagingOpts())
	if err != nil {
		b.Fatal(err)
	}
	defer warm.Sys.Shutdown()
	b.ReportAllocs()
	b.ResetTimer()
	var frameBytes, sharedChunks, cowBytes float64
	for i := 0; i < b.N; i++ {
		snap, err := warm.Sys.Fork()
		if err != nil {
			b.Fatal(err)
		}
		frameBytes = float64(snap.Stats.FrameBytes)
		sharedChunks = float64(snap.Stats.SharedChunks)
		cowBytes = float64(snap.Stats.SharedBytes)
		b.StopTimer()
		snap.Sys.Shutdown()
		b.StartTimer()
	}
	b.ReportMetric(frameBytes, "sim_fork_frame_bytes")
	b.ReportMetric(sharedChunks, "sim_fork_shared_chunks")
	b.ReportMetric(cowBytes, "sim_fork_cow_bytes")
}

func BenchmarkAblationLaxity(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.LaxityResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationLaxity(8 * time.Second)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.WithLaxityMbps[2], "mbps_with_laxity")
	b.ReportMetric(last.WithoutLaxityMbps[2], "mbps_without")
	b.ReportMetric(last.TxnsPerPeriodWithout[2], "txns_per_period_without")
}

func BenchmarkAblationFCFS(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.FCFSResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationFCFS(8 * time.Second)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.AtroposMbps[2]/last.AtroposMbps[0], "atropos_spread")
	b.ReportMetric(last.FCFSMbps[2]/last.FCFSMbps[0], "fcfs_spread")
}

func BenchmarkAblationCrosstalk(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.CrosstalkResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationCrosstalk(8 * time.Second)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.SelfIsolation(), "self_isolation")
	b.ReportMetric(last.ExtIsolation(), "extpager_isolation")
}

func BenchmarkAblationSlack(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.SlackResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationSlack(8 * time.Second)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.XTrueMbps, "mbps_xtrue")
	b.ReportMetric(last.XFalseMbps, "mbps_xfalse")
}

func BenchmarkAblationRevocation(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.RevocationResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationRevocation()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.TransparentMs, "transparent_ms")
	b.ReportMetric(last.IntrusiveMs, "intrusive_ms")
}

func BenchmarkExtensionPipelineDepth(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.DepthResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExtensionPipelineDepth([]int{1, 8}, 8*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Mbps[0], "mbps_depth1")
	b.ReportMetric(last.Mbps[1], "mbps_depth8")
}

func BenchmarkExtensionSecondChance(b *testing.B) {
	b.ReportAllocs()
	var last []experiments.PolicyComparison
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExtensionEvictionPolicies(context.Background(), 8*time.Second,
			[]stretchdrv.PolicyKind{stretchdrv.PolicyFIFO, stretchdrv.PolicySecondChance}, 0)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last[0].PageInsPerMB, "fifo_ins_per_mb")
	b.ReportMetric(last[1].PageInsPerMB, "sc_ins_per_mb")
}

func BenchmarkExtensionGuardedPT(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.GPTResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExtensionGuardedPT()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.LinearUS, "linear_us")
	b.ReportMetric(last.GuardedUS, "guarded_us")
	b.ReportMetric(last.Slowdown(), "slowdown")
}

func BenchmarkExtensionStreamPaging(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.StreamPagingResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExtensionStreamPaging(8 * time.Second)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.DemandMbps, "mbps_demand")
	b.ReportMetric(last.StreamingMbps, "mbps_streaming")
	b.ReportMetric(last.Speedup(), "speedup")
}

func BenchmarkExtensionRebalance(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.RebalanceResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExtensionRebalance(10 * time.Second)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.WithoutMbps, "mbps_without")
	b.ReportMetric(last.WithMbps, "mbps_with")
	b.ReportMetric(float64(last.Moves), "moves")
}

// BenchmarkClusterScale runs the cluster paging scenario on one machine at
// growing domain populations. The deterministic metrics are the scaling
// story: sim_events_per_s is how much simulated work the run performs per
// simulated second, and sim_events_per_domain is the per-domain share — it
// must stay flat (sub-linear total cost) as the population grows, because
// idle domains cost the indexed scheduler, the indexed allocator and the
// incremental crosstalk monitor nothing. Wall-clock ns/op measures the
// simulator's own cost at each scale.
func BenchmarkClusterScale(b *testing.B) {
	for _, n := range []int{100, 1000, 5000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			var last *experiments.ClusterResult
			for i := 0; i < b.N; i++ {
				opt := experiments.DefaultClusterOptions()
				opt.Machines = 1
				opt.DomainsPerMachine = n
				opt.Servers = 1 + n/1000
				r, err := experiments.RunCluster(context.Background(), opt)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			tot := last.Totals()
			if tot.Violations != 0 || tot.Kills != 0 {
				b.Fatalf("QoS breached at %d domains: %+v", n, tot)
			}
			secs := last.Options.Measure.Seconds()
			b.ReportMetric(float64(tot.Events)/secs, "sim_events_per_s")
			b.ReportMetric(float64(tot.Events)/float64(n), "sim_events_per_domain")
		})
	}
}

func BenchmarkMotivationMJPEG(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.MotivationResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.MotivationMJPEG(10 * time.Second)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(100*last.QoSMissRate, "qos_miss_pct")
	b.ReportMetric(100*last.FCFSMissRate, "fcfs_miss_pct")
	b.ReportMetric(last.QoSJitterMs, "qos_jitter_ms")
	b.ReportMetric(last.FCFSJitterMs, "fcfs_jitter_ms")
}

// BenchmarkClusterSummary runs a traced two-machine cluster and reports the
// merged observability rollup's deterministic shape: how many fault spans
// the cluster recorded, how many distinct fault-path hops the merged
// latency rollup covers, and the top domain's fault-blocked share. These
// sim_summary_* metrics gate the whole cross-machine pipeline — per-machine
// Summarize, flow-tagged tracing, and the order-independent merge — so any
// drift in what the rollup reports fails benchcmp even when wall-clock
// stays flat.
func BenchmarkClusterSummary(b *testing.B) {
	b.ReportAllocs()
	var last *experiments.ClusterResult
	for i := 0; i < b.N; i++ {
		opt := experiments.DefaultClusterOptions()
		opt.Machines = 2
		opt.DomainsPerMachine = 40
		opt.Servers = 2
		opt.Trace = true
		r, err := experiments.RunCluster(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	sum := last.Summary
	if sum == nil || last.Trace == nil {
		b.Fatal("traced run produced no rollup or no trace")
	}
	if len(sum.TopDomains) == 0 {
		b.Fatal("rollup has no top domains")
	}
	b.ReportMetric(float64(sum.Spans), "sim_summary_spans")
	b.ReportMetric(float64(len(sum.Hops)), "sim_summary_hops")
	b.ReportMetric(100*sum.TopDomains[0].Share(), "sim_summary_top_share_pct")
}
