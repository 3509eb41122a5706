package experiments

import (
	"context"
	"runtime"
	"testing"
	"time"

	"nemesis/internal/stretchdrv"
)

func TestExtensionPipelineDepth(t *testing.T) {
	r, err := ExtensionPipelineDepth([]int{1, 4}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// A shallow pipeline wastes slice time on lax charges while the
	// client processes completed pages; depth 4 roughly doubles it.
	if r.Mbps[1] < 1.5*r.Mbps[0] {
		t.Fatalf("depth sweep flat: depth1=%.2f depth4=%.2f", r.Mbps[0], r.Mbps[1])
	}
	if r.Mbps[0] < 4 {
		t.Fatalf("depth-1 throughput %.2f implausibly low (laxity should still help)", r.Mbps[0])
	}
}

func TestExtensionSecondChance(t *testing.T) {
	rows, err := ExtensionEvictionPolicies(context.Background(), 10*time.Second,
		[]stretchdrv.PolicyKind{stretchdrv.PolicyFIFO, stretchdrv.PolicySecondChance}, 0)
	if err != nil {
		t.Fatal(err)
	}
	fifo, sc := rows[0], rows[1]
	// Second chance keeps the hot set resident: materially fewer
	// page-ins per MB of progress, and higher throughput.
	if sc.PageInsPerMB > 0.8*fifo.PageInsPerMB {
		t.Fatalf("second chance did not reduce paging rate: fifo=%.1f sc=%.1f ins/MB",
			fifo.PageInsPerMB, sc.PageInsPerMB)
	}
	if sc.Mbps < fifo.Mbps {
		t.Fatalf("second chance slower: %.2f vs %.2f Mbit/s", sc.Mbps, fifo.Mbps)
	}
}

func TestExtensionEvictionPolicyClock(t *testing.T) {
	rows, err := ExtensionEvictionPolicies(context.Background(), 10*time.Second,
		[]stretchdrv.PolicyKind{stretchdrv.PolicyFIFO, stretchdrv.PolicyClock}, 0)
	if err != nil {
		t.Fatal(err)
	}
	fifo, clock := rows[0], rows[1]
	// CLOCK sees the hot set's referenced bits refreshed between sweeps and
	// keeps it resident, like second chance.
	if clock.PageInsPerMB > 0.8*fifo.PageInsPerMB {
		t.Fatalf("clock did not reduce paging rate: fifo=%.1f clock=%.1f ins/MB",
			fifo.PageInsPerMB, clock.PageInsPerMB)
	}
	if clock.Spares == 0 {
		t.Fatal("clock never spared a referenced page")
	}
	if fifo.Spares != 0 {
		t.Fatalf("fifo spared %d pages; it must ignore reference bits", fifo.Spares)
	}
}

func TestExtensionWriteClustering(t *testing.T) {
	r, err := ExtensionWriteClustering(context.Background(), 10*time.Second, []int{1, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.PageOuts[0] == 0 || r.PageOuts[1] == 0 {
		t.Fatalf("no cleaning happened: %v", r.PageOuts)
	}
	// ClusterSize 1 degenerates to one transaction per page.
	if r.WriteTxns[0] != r.PageOuts[0] {
		t.Fatalf("unclustered run merged writes: %d txns for %d pages",
			r.WriteTxns[0], r.PageOuts[0])
	}
	// ClusterSize 4 must merge batches into fewer USD transactions — the
	// measurable improvement from batched multi-page cleaning.
	if r.WriteTxns[1] >= r.PageOuts[1] {
		t.Fatalf("clustering merged nothing: %d txns for %d pages",
			r.WriteTxns[1], r.PageOuts[1])
	}
	if r.TxnsPerPageOut[1] > 0.7 {
		t.Fatalf("clustering ratio %.2f txns/page, want <= 0.7", r.TxnsPerPageOut[1])
	}
}

func TestExtensionGuardedPT(t *testing.T) {
	r, err := ExtensionGuardedPT()
	if err != nil {
		t.Fatal(err)
	}
	if r.LinearUS != 0.15 {
		t.Fatalf("linear dirty lookup = %.3fus, want 0.15", r.LinearUS)
	}
	// "about three times slower" (measured: ~3.7x with a neighbouring
	// stretch splitting the upper trie levels).
	if s := r.Slowdown(); s < 2.5 || s > 4.5 {
		t.Fatalf("GPT slowdown = %.2fx (%.3fus), want ~3x", s, r.GuardedUS)
	}
}

// ExtensionGuardedPT builds no system, so it leaves no process behind.
func TestExtensionGuardedPTLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := ExtensionGuardedPT(); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines %d -> %d", before, after)
	}
}

func TestExtensionStreamPaging(t *testing.T) {
	r, err := ExtensionStreamPaging(12 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Overlapping per-page processing with disk service must give a
	// material speedup (media rate caps it well under 2x here).
	if s := r.Speedup(); s < 1.3 {
		t.Fatalf("stream paging speedup = %.2fx (demand %.2f, streaming %.2f)",
			s, r.DemandMbps, r.StreamingMbps)
	}
	// The sequential predictor should be essentially perfect on a
	// sequential scan.
	if r.Prefetches == 0 {
		t.Fatal("no prefetches issued")
	}
	if float64(r.PrefetchedUsed) < 0.95*float64(r.Prefetches) {
		t.Fatalf("prefetch accuracy %.1f%% (%d/%d)",
			100*float64(r.PrefetchedUsed)/float64(r.Prefetches), r.PrefetchedUsed, r.Prefetches)
	}
}

func TestExtensionRebalance(t *testing.T) {
	r, err := ExtensionRebalance(15 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r.Moves == 0 {
		t.Fatal("rebalancer made no moves")
	}
	// The worker's optimistic quota should be substantially filled from
	// the idler's surplus...
	if r.WorkerFramesWith <= r.WorkerFramesWithout {
		t.Fatalf("worker frames %d -> %d; no memory moved", r.WorkerFramesWithout, r.WorkerFramesWith)
	}
	// ...and throughput transformed (working set becomes resident).
	if s := r.Speedup(); s < 3 {
		t.Fatalf("rebalance speedup = %.1fx (%.2f -> %.2f Mbit/s)", s, r.WithoutMbps, r.WithMbps)
	}
	// No contract was violated: the policy only moves optimistic frames.
	// (The idler is alive; only its optimistic frames went.)
}

func TestMotivationMJPEG(t *testing.T) {
	r, err := MotivationMJPEG(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r.Frames < 400 {
		t.Fatalf("frames = %d", r.Frames)
	}
	// With contracts the player holds its deadlines...
	if r.QoSMissRate > 0.05 {
		t.Fatalf("QoS miss rate = %.1f%%", 100*r.QoSMissRate)
	}
	// ...and on the conventional configuration the compile destroys it.
	if r.FCFSMissRate < 0.3 {
		t.Fatalf("FCFS miss rate only %.1f%%", 100*r.FCFSMissRate)
	}
	if r.QoSJitterMs >= r.FCFSJitterMs {
		t.Fatalf("jitter: qos %.2fms >= fcfs %.2fms", r.QoSJitterMs, r.FCFSJitterMs)
	}
}
