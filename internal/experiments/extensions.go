package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"nemesis/internal/atropos"
	"nemesis/internal/core"
	"nemesis/internal/cpu"
	"nemesis/internal/domain"
	"nemesis/internal/experiments/sweep"
	"nemesis/internal/mem"
	"nemesis/internal/stretchdrv"
	"nemesis/internal/trace"
	"nemesis/internal/usd"
	"nemesis/internal/vm"
	"nemesis/internal/workload"
)

// DepthResult is the pipeline-depth sweep (extension E1): the paper's FS
// client "trades off additional buffer space against disk latency" by
// pipelining transactions; this measures that trade-off.
type DepthResult struct {
	Depths []int
	Mbps   []float64
}

// ExtensionPipelineDepth measures FS-client throughput against IO-channel
// depth under the paper's 50% contract. The client spends 2 ms of
// application processing per completed page, so a shallow pipeline leaves
// the disk idle between its transactions (charged as lax time) while a deep
// one overlaps processing with disk service.
func ExtensionPipelineDepth(depths []int, measure time.Duration) (*DepthResult, error) {
	res := &DepthResult{Depths: depths}
	for _, depth := range depths {
		cfg := core.DefaultConfig()
		cfg.MemoryFrames = 512
		sys := core.New(cfg)
		part := usd.Extent{Start: 0, Count: sys.Disk.Geom.TotalBlocks / 4}
		fcfg := workload.DefaultFSClientConfig("fs", part)
		fcfg.Depth = depth
		fcfg.ProcessTime = 2 * time.Millisecond
		fcfg.SampleEvery = time.Second
		var set trace.SeriesSet
		fc, err := workload.StartFSClient(sys, fcfg, set.New("fs"))
		if err != nil {
			return nil, err
		}
		sys.Run(measure)
		fc.Stop()
		res.Mbps = append(res.Mbps, set.Get("fs").Mean())
		sys.Shutdown()
	}
	return res, nil
}

// StreamPagingResult compares demand paging against the stream-paging
// driver (extension E4 — the paper's §8: "the current stretch driver
// implementation ... could be extended to handle additional pipe-lining via
// a 'stream-paging' scheme"). The workload models a continuous-media
// consumer: sequential reads with 1 ms of processing per page, so demand
// paging serialises disk and CPU while stream paging overlaps them.
type StreamPagingResult struct {
	DemandMbps    float64
	StreamingMbps float64
	// Prefetches / PrefetchedUsed report predictor effectiveness.
	Prefetches, PrefetchedUsed int64
}

// Speedup returns streaming/demand throughput.
func (r *StreamPagingResult) Speedup() float64 {
	if r.DemandMbps == 0 {
		return 0
	}
	return r.StreamingMbps / r.DemandMbps
}

// ExtensionStreamPaging measures both drivers on the CM-consumer workload.
func ExtensionStreamPaging(measure time.Duration) (*StreamPagingResult, error) {
	const (
		virt    = 2 << 20 // 256 pages
		frames  = 16
		window  = 8
		perPage = time.Millisecond
	)
	demandQ := atropos.QoS{P: 250 * time.Millisecond, S: 100 * time.Millisecond, X: true, L: 10 * time.Millisecond}
	prefetchQ := atropos.QoS{P: 250 * time.Millisecond, S: 100 * time.Millisecond, X: true, L: 10 * time.Millisecond}

	run := func(streaming bool) (float64, int64, int64, error) {
		cfg := core.DefaultConfig()
		cfg.MemoryFrames = 1024
		sys := core.New(cfg)
		// Slack on: the disk is otherwise idle, so the comparison is
		// about latency overlap, not slice budgets.
		sys.USD.SlackEnabled = true
		dom, err := sys.NewDomain("cm",
			atropos.QoS{P: 100 * time.Millisecond, S: 80 * time.Millisecond, X: true},
			mem.Contract{Guaranteed: frames})
		if err != nil {
			return 0, 0, 0, err
		}
		var st *vm.Stretch
		var drv *stretchdrv.Streaming
		if streaming {
			st, drv, err = sys.NewStreamingStretch(dom, virt, 2*virt, demandQ, prefetchQ, window)
		} else {
			st, _, err = sys.NewPagedStretch(dom, virt, 2*virt, demandQ)
		}
		if err != nil {
			return 0, 0, 0, err
		}
		var bytes int64
		ready := false
		dom.Go("main", func(t *domain.Thread) {
			core.PreallocateFrames(t, frames)
			// Initialise: dirty every page so it all lands in swap.
			if err := t.Touch(st.Base(), virt, vm.AccessWrite); err != nil {
				return
			}
			ready = true
			marker := t.Now()
			_ = marker
			for {
				for off := 0; off < virt; off += vm.PageSize {
					if err := t.Touch(st.Base()+vm.VA(off), vm.PageSize, vm.AccessRead); err != nil {
						return
					}
					t.Compute(perPage) // per-page CM processing
					if ready {
						bytes += int64(vm.PageSize)
					}
				}
			}
		})
		// Let initialisation finish, then measure.
		for i := 0; i < 300 && !ready; i++ {
			sys.Run(time.Second)
		}
		if !ready {
			return 0, 0, 0, fmt.Errorf("experiments: stream-paging init did not finish")
		}
		bytes = 0
		sys.Run(measure)
		mbps := float64(bytes) * 8 / 1e6 / measure.Seconds()
		var pf, used int64
		if drv != nil {
			pf, used = drv.Prefetches, drv.PrefetchedUsed
		}
		sys.Shutdown()
		return mbps, pf, used, nil
	}

	res := &StreamPagingResult{}
	var err error
	if res.DemandMbps, _, _, err = run(false); err != nil {
		return nil, err
	}
	if res.StreamingMbps, res.Prefetches, res.PrefetchedUsed, err = run(true); err != nil {
		return nil, err
	}
	return res, nil
}

// GPTResult compares dirty-bit lookup cost on the linear page table against
// the guarded page table (extension E3): the paper notes its "earlier
// implementation using guarded page tables was about three times slower".
type GPTResult struct {
	LinearUS  float64
	GuardedUS float64
}

// Slowdown returns guarded/linear.
func (r *GPTResult) Slowdown() float64 {
	if r.LinearUS == 0 {
		return 0
	}
	return r.GuardedUS / r.LinearUS
}

// ExtensionGuardedPT runs the dirty micro-benchmark over both table
// implementations, charging the per-node walk cost for each lookup.
func ExtensionGuardedPT() (*GPTResult, error) {
	const pages = 100
	const iters = 4096
	costs := cpu.DefaultCosts()

	run := func(table vm.Table) float64 {
		// Populate like a real system: several stretches' NULL mappings
		// plus the benchmark stretch, clustered as the stretch allocator
		// would lay them out.
		base := vm.VPN(0x1000000000 >> 13)
		for i := vm.VPN(0); i < pages; i++ {
			table.Insert(base+i, 1)
		}
		for i := vm.VPN(0); i < 64; i++ { // a neighbouring stretch
			table.Insert(base+4096+i, 2)
		}
		rng := rand.New(rand.NewSource(core.DefaultConfig().Seed))
		var total time.Duration
		for i := 0; i < iters; i++ {
			vpn := base + vm.VPN(rng.Intn(pages))
			depth := table.WalkDepth(vpn)
			if pte := table.Lookup(vpn); pte == nil {
				return 0
			}
			// The terminal access costs a full PTLookup (entry fetch plus
			// the dirty-bit test); each extra trie node is a pointer
			// chase at GPTNodeVisit. The linear table has depth 1, so it
			// charges exactly PTLookup.
			total += costs.PTLookup + time.Duration(depth-1)*costs.GPTNodeVisit
		}
		return total.Seconds() * 1e6 / iters
	}
	res := &GPTResult{
		LinearUS:  run(vm.NewPageTable()),
		GuardedUS: run(vm.NewGuardedPageTable()),
	}
	return res, nil
}

// PolicyComparison is one replacement policy's showing on the E2 hot-set
// workload.
type PolicyComparison struct {
	Policy stretchdrv.PolicyKind
	// PageInsPerMB is the paging rate: page-ins per megabyte of
	// application progress.
	PageInsPerMB float64
	Mbps         float64
	// Spares counts pages the policy re-armed instead of evicting.
	Spares int64
}

// ExtensionEvictionPolicies runs the E2 hot-set workload once per
// replacement policy, selected through the pager spec: a hot page set
// re-referenced between every cold access, so reference-aware policies
// (second chance, clock) keep it resident while FIFO keeps evicting it
// (extension E2 — the paper notes its "fairly pure demand paged scheme ...
// can clearly be improved"). The metric is paging *rate*: page-ins per
// megabyte of application progress (total page-ins over a fixed window
// reward the better policy's higher progress, so the rate is the honest
// comparison). Policies fan out across workers sweep workers
// (sweep.Workers() when workers <= 0), which observe ctx between policies.
func ExtensionEvictionPolicies(ctx context.Context, measure time.Duration, kinds []stretchdrv.PolicyKind, workers int) ([]PolicyComparison, error) {
	return sweep.Map(ctx, workers, kinds, func(_ context.Context, kind stretchdrv.PolicyKind) (PolicyComparison, error) {
		return evictionPolicyCell(measure, kind)
	})
}

// evictionPolicyCell is one policy's independent run.
func evictionPolicyCell(measure time.Duration, kind stretchdrv.PolicyKind) (PolicyComparison, error) {
	cfg := core.DefaultConfig()
	cfg.MemoryFrames = 512
	sys := core.New(cfg)
	dom, err := sys.NewDomain("app",
		atropos.QoS{P: 100 * time.Millisecond, S: 20 * time.Millisecond, X: true},
		mem.Contract{Guaranteed: 6})
	if err != nil {
		return PolicyComparison{}, err
	}
	st, gdrv, err := sys.NewStretch(dom, core.PagerSpec{
		Kind:      core.KindPaged,
		Size:      16 * vm.PageSize,
		SwapBytes: 64 * vm.PageSize,
		DiskQoS:   atropos.QoS{P: 250 * time.Millisecond, S: 200 * time.Millisecond, X: true, L: 10 * time.Millisecond},
		Policy:    kind,
	})
	if err != nil {
		return PolicyComparison{}, err
	}
	drv := gdrv.(*stretchdrv.Paged)
	dom.Go("main", func(t *domain.Thread) {
		core.PreallocateFrames(t, 6)
		// A 3-page hot set re-touched (several times) between every
		// cold access, plus a 13-page cold stream, over 6 frames.
		// FIFO evicts hot pages as they age; second chance sees their
		// referenced bits refreshed between evictions and spares
		// them. (The re-touches between consecutive evictions are
		// what distinguish the policies: under total thrash CLOCK
		// degenerates to FIFO.)
		for {
			for pg := 3; pg < 16; pg++ {
				if err := t.Touch(st.PageBase(pg), vm.PageSize, vm.AccessRead); err != nil {
					return
				}
				for rep := 0; rep < 3; rep++ {
					for h := 0; h < 3; h++ {
						if err := t.Touch(st.PageBase(h), vm.PageSize, vm.AccessRead); err != nil {
							return
						}
					}
				}
			}
		}
	})
	sys.Run(measure)
	sys.Shutdown()
	pc := PolicyComparison{Policy: kind, Spares: drv.Stats.Spares}
	if mb := float64(dom.Stats().BytesTouched) / (1 << 20); mb > 0 {
		pc.PageInsPerMB = float64(drv.Stats.PageIns) / mb
		pc.Mbps = mb * 8 / measure.Seconds()
	}
	return pc, nil
}

// ClusteringResult reports the write-clustering sweep: the same forgetful
// page-out workload (Fig. 8's shape) run at several cluster sizes. A
// cleaning batch of disk-contiguous pages goes out as one USD transaction,
// so TxnsPerPageOut drops below 1 as ClusterSize grows — the rotation
// amortisation conventional VM systems get from write clustering.
type ClusteringResult struct {
	Sizes []int
	// PageOuts / WriteTxns are pages cleaned and the disk transactions
	// they merged into; TxnsPerPageOut is their ratio.
	PageOuts       []int64
	WriteTxns      []int64
	TxnsPerPageOut []float64
	Mbps           []float64
}

// ExtensionWriteClustering measures eviction-time write batching: a
// forgetful writer (never pages in, every eviction must clean) over a small
// frame grant, at each cluster size. Sizes fan out across workers sweep
// workers (sweep.Workers() when workers <= 0), which observe ctx between
// sizes.
func ExtensionWriteClustering(ctx context.Context, measure time.Duration, sizes []int, workers int) (*ClusteringResult, error) {
	cells, err := sweep.Map(ctx, workers, sizes, func(_ context.Context, size int) (clusteringCell, error) {
		return writeClusteringCell(measure, size)
	})
	if err != nil {
		return nil, err
	}
	res := &ClusteringResult{Sizes: sizes}
	for _, c := range cells {
		res.PageOuts = append(res.PageOuts, c.pageOuts)
		res.WriteTxns = append(res.WriteTxns, c.writeTxns)
		res.TxnsPerPageOut = append(res.TxnsPerPageOut, c.ratio)
		res.Mbps = append(res.Mbps, c.mbps)
	}
	return res, nil
}

// clusteringCell is one cluster size's measurements.
type clusteringCell struct {
	pageOuts, writeTxns int64
	ratio, mbps         float64
}

func writeClusteringCell(measure time.Duration, size int) (clusteringCell, error) {
	const (
		frames = 8
		pages  = 64
	)
	cfg := core.DefaultConfig()
	cfg.MemoryFrames = 512
	sys := core.New(cfg)
	dom, err := sys.NewDomain("writer",
		atropos.QoS{P: 100 * time.Millisecond, S: 20 * time.Millisecond, X: true},
		mem.Contract{Guaranteed: frames})
	if err != nil {
		return clusteringCell{}, err
	}
	st, gdrv, err := sys.NewStretch(dom, core.PagerSpec{
		Kind:        core.KindPaged,
		Size:        pages * vm.PageSize,
		SwapBytes:   4 * pages * vm.PageSize,
		DiskQoS:     atropos.QoS{P: 250 * time.Millisecond, S: 200 * time.Millisecond, X: true, L: 10 * time.Millisecond},
		Writeback:   stretchdrv.WritebackForgetful,
		ClusterSize: size,
	})
	if err != nil {
		return clusteringCell{}, err
	}
	drv := gdrv.(*stretchdrv.Paged)
	var bytes int64
	dom.Go("main", func(t *domain.Thread) {
		core.PreallocateFrames(t, frames)
		for {
			for pg := 0; pg < pages; pg++ {
				if err := t.Touch(st.PageBase(pg), vm.PageSize, vm.AccessWrite); err != nil {
					return
				}
				bytes += int64(vm.PageSize)
			}
		}
	})
	sys.Run(measure)
	sys.Shutdown()
	s := drv.Stats
	cell := clusteringCell{
		pageOuts:  s.CleanedPages,
		writeTxns: s.CleanTxns,
		mbps:      float64(bytes) * 8 / 1e6 / measure.Seconds(),
	}
	if s.CleanedPages > 0 {
		cell.ratio = float64(s.CleanTxns) / float64(s.CleanedPages)
	}
	return cell, nil
}

// RebalanceResult measures the centralised global-performance policy
// (extension E5 — the paper's §8: "ongoing work is looking at both
// centralised and devolved solutions" to global performance). A worker with
// a 32-page working set but only 8 guaranteed frames thrashes while an idle
// domain sits on optimistic frames; the rebalancer moves them.
type RebalanceResult struct {
	WithoutMbps, WithMbps float64
	Moves                 int64
	WorkerFramesWithout   uint64
	WorkerFramesWith      uint64
}

// Speedup returns with/without throughput.
func (r *RebalanceResult) Speedup() float64 {
	if r.WithoutMbps == 0 {
		return 0
	}
	return r.WithMbps / r.WithoutMbps
}

// ExtensionRebalance runs the scenario with and without the rebalancer.
func ExtensionRebalance(measure time.Duration) (*RebalanceResult, error) {
	const (
		total     = 48 // frames of main memory
		workerSet = 32 // pages the worker loops over
	)
	run := func(rebalance bool) (float64, int64, uint64, error) {
		cfg := core.DefaultConfig()
		cfg.MemoryFrames = total
		sys := core.New(cfg)
		cpuQ := atropos.QoS{P: 100 * time.Millisecond, S: 30 * time.Millisecond, X: true}
		diskQ := atropos.QoS{P: 250 * time.Millisecond, S: 100 * time.Millisecond, X: true, L: 10 * time.Millisecond}

		// The idler grabs its optimistic frames and goes to sleep.
		idler, err := sys.NewDomain("idler", cpuQ, mem.Contract{Guaranteed: 8, Optimistic: 32})
		if err != nil {
			return 0, 0, 0, err
		}
		sys.NewPagedStretch(idler, 40*vm.PageSize, 128*vm.PageSize,
			atropos.QoS{P: 250 * time.Millisecond, S: 25 * time.Millisecond, L: 10 * time.Millisecond})
		idler.Go("main", func(t *domain.Thread) {
			core.PreallocateFrames(t, 40)
			t.Sleep(time.Hour)
		})
		sys.Run(time.Second)

		// The worker: 8 guaranteed + up to 24 optimistic, working set 32.
		worker, err := sys.NewDomain("worker", cpuQ, mem.Contract{Guaranteed: 8, Optimistic: 24})
		if err != nil {
			return 0, 0, 0, err
		}
		st, _, err := sys.NewPagedStretch(worker, workerSet*vm.PageSize, 128*vm.PageSize, diskQ)
		if err != nil {
			return 0, 0, 0, err
		}
		var bytes int64
		worker.Go("main", func(t *domain.Thread) {
			core.PreallocateFrames(t, 8)
			for {
				for pg := 0; pg < workerSet; pg++ {
					if err := t.Touch(st.PageBase(pg), vm.PageSize, vm.AccessRead); err != nil {
						return
					}
					bytes += int64(vm.PageSize)
				}
			}
		})
		var rb *core.Rebalancer
		if rebalance {
			rb = sys.StartRebalancer(time.Second)
		}
		sys.Run(measure)
		var moves int64
		if rb != nil {
			moves = rb.Moves
			rb.Stop()
		}
		frames := worker.MemClient().Allocated()
		sys.Shutdown()
		return float64(bytes) * 8 / 1e6 / measure.Seconds(), moves, frames, nil
	}
	res := &RebalanceResult{}
	var err error
	if res.WithoutMbps, _, res.WorkerFramesWithout, err = run(false); err != nil {
		return nil, err
	}
	if res.WithMbps, res.Moves, res.WorkerFramesWith, err = run(true); err != nil {
		return nil, err
	}
	return res, nil
}
