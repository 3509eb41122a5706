package obs

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// refHistogram is the histogram without inline samples: every observation
// goes straight into a full bucket array. The registry's Histogram must
// read exactly like it at every sample count.
type refHistogram struct {
	counts               [numBuckets + 1]int64
	count                int64
	sum, lowest, highest time.Duration
}

func (h *refHistogram) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for i < len(histBuckets) && d > histBuckets[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += d
	if h.count == 1 || d < h.lowest {
		h.lowest = d
	}
	if d > h.highest {
		h.highest = d
	}
}

func (h *refHistogram) quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.lowest
	}
	if q >= 1 {
		return h.highest
	}
	target := int64(q*float64(h.count) + 0.5)
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum < target {
			continue
		}
		var lo, hi time.Duration
		if i > 0 {
			lo = histBuckets[i-1]
		}
		if i < len(histBuckets) {
			hi = histBuckets[i]
		} else {
			hi = h.highest
		}
		est := lo + time.Duration(float64(hi-lo)*float64(target-(cum-c))/float64(c))
		return min(max(est, h.lowest), h.highest)
	}
	return h.highest
}

func (h *refHistogram) snapshot() HistSnapshot {
	if h.count == 0 {
		return HistSnapshot{}
	}
	last := 0
	for i, c := range h.counts {
		if c != 0 {
			last = i + 1
		}
	}
	return HistSnapshot{
		Count: h.count, SumNs: int64(h.sum), MinNs: int64(h.lowest), MaxNs: int64(h.highest),
		Buckets: append([]int64(nil), h.counts[:last]...),
	}
}

// checkAgainstRef compares every reading of h with the reference.
func checkAgainstRef(t *testing.T, h *Histogram, ref *refHistogram, what string) {
	t.Helper()
	if h.Count() != ref.count || h.Sum() != ref.sum || h.Min() != ref.lowest || h.Max() != ref.highest {
		t.Fatalf("%s: count/sum/min/max %d/%v/%v/%v, want %d/%v/%v/%v", what,
			h.Count(), h.Sum(), h.Min(), h.Max(), ref.count, ref.sum, ref.lowest, ref.highest)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.95, 0.99, 1} {
		if got, want := h.Quantile(q), ref.quantile(q); got != want {
			t.Fatalf("%s: Quantile(%v) = %v, want %v", what, q, got, want)
		}
	}
	if got, want := h.Snapshot(), ref.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Snapshot = %+v, want %+v", what, got, want)
	}
}

// sampleDuration draws a latency from every region the buckets have:
// negative, zero, exact bucket bounds and their neighbours, the bounded
// range, and the overflow bucket past the last bound.
func sampleDuration(rng *rand.Rand) time.Duration {
	last := histBuckets[numBuckets-1]
	switch rng.Intn(6) {
	case 0:
		return -time.Duration(rng.Int63n(int64(time.Second)))
	case 1:
		return 0
	case 2:
		return histBuckets[rng.Intn(numBuckets)] + time.Duration(rng.Intn(3)-1)
	case 3:
		return last + time.Duration(rng.Int63n(int64(100*time.Second)))
	default:
		return time.Duration(rng.Int63n(int64(last)))
	}
}

// TestHistogramMatchesReference observes the same samples into a registry
// histogram and the full-bucket reference, and compares every reading after
// each sample: first fixed runs of 0 to 6 samples (either side of the
// inline limit), then random runs.
func TestHistogramMatchesReference(t *testing.T) {
	r, _ := newTestRegistry()
	fixed := []time.Duration{3 * time.Millisecond, -5, 0, histBuckets[4], 90 * time.Second, 700 * time.Nanosecond}
	for n := 0; n <= len(fixed); n++ {
		h, ref := r.Histogram("fixed", "h", fmt.Sprint(n)), &refHistogram{}
		for _, d := range fixed[:n] {
			h.Observe(d)
			ref.observe(d)
		}
		checkAgainstRef(t, h, ref, fmt.Sprintf("%d fixed samples", n))
	}

	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		h, ref := r.Histogram("random", "h", fmt.Sprint(trial)), &refHistogram{}
		checkAgainstRef(t, h, ref, "empty")
		for i, n := 0, rng.Intn(3*inlineSamples); i < n; i++ {
			d := sampleDuration(rng)
			h.Observe(d)
			ref.observe(d)
			checkAgainstRef(t, h, ref, "random")
		}
	}
}

// TestHistogramInlineAllocs pins the inline storage: a histogram's first
// inlineSamples observations allocate nothing, and the next allocates its
// bucket array once.
func TestHistogramInlineAllocs(t *testing.T) {
	r, _ := newTestRegistry()
	const runs = 100
	hs := make([]*Histogram, runs+1)
	for i := range hs {
		hs[i] = r.Histogram("usd", "service", fmt.Sprint(i))
	}
	next := 0
	if a := testing.AllocsPerRun(runs, func() {
		h := hs[next]
		next++
		for i := 0; i < inlineSamples; i++ {
			h.Observe(time.Duration(i) * time.Millisecond)
		}
	}); a != 0 {
		t.Fatalf("%d observations allocated %.1f times, want 0", inlineSamples, a)
	}
	next = 0
	if a := testing.AllocsPerRun(runs, func() {
		h := hs[next]
		next++
		h.Observe(time.Second)
		h.Observe(2 * time.Second)
	}); a != 1 {
		t.Fatalf("spilling to buckets allocated %.1f times, want 1", a)
	}
}

// snapshotFold is Summarize's hop rollup built the plain way: a snapshot
// per hop histogram, merged by hop name.
func snapshotFold(r *Registry) []SummaryHop {
	idx := map[string]int{}
	var out []SummaryHop
	for i := range r.hops.n {
		h := r.hops.at(i)
		name := r.fams[h.fam].name
		j, ok := idx[name]
		if !ok {
			j = len(out)
			idx[name] = j
			out = append(out, SummaryHop{Hop: name})
		}
		out[j].Hist.Merge(h.Snapshot())
	}
	sortHops(out)
	return out
}

// TestSummarizeMatchesSnapshotFold checks Summarize's snapshot-free hop
// rollup against the Merge(Snapshot()) fold, over random spans (hop
// histograms either side of the inline limit) plus never-observed hop
// histograms, and mergeHist against Merge(Snapshot()) along random folds
// of observed and empty histograms.
func TestSummarizeMatchesSnapshotFold(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	hopNames := []string{"dispatch", "mmentry", "usd.queue", "net.out", "map"}
	for trial := 0; trial < 50; trial++ {
		r, fc := newTestRegistry()
		for s, n := 0, rng.Intn(60); s < n; s++ {
			sp := r.StartSpan(r.DomainNum(fmt.Sprintf("d%d", rng.Intn(8))), []string{"page", "protection"}[rng.Intn(2)])
			for _, hop := range hopNames[:1+rng.Intn(len(hopNames))] {
				sp.BeginHop(hop)
				if d := sampleDuration(rng); d > 0 {
					fc.advance(d)
				}
			}
			sp.Finish("worker")
		}
		for e := rng.Intn(3); e > 0; e-- {
			h := r.hops.add()
			h.r, h.fam, h.dom = r, r.internFam("page", hopNames[rng.Intn(len(hopNames))]), r.DomainNum("idle")
		}
		got, err := json.Marshal(r.Summarize(4).Hops)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(snapshotFold(r))
		if string(got) != string(want) {
			t.Fatalf("trial %d: Summarize hops\n%s\nwant\n%s", trial, got, want)
		}
	}

	r, _ := newTestRegistry()
	for trial := 0; trial < 200; trial++ {
		var folded, merged HistSnapshot
		for i, n := 0, rng.Intn(6); i < n; i++ {
			h := r.Histogram("fold", "h", fmt.Sprintf("%d/%d", trial, i))
			for j, m := 0, rng.Intn(3*inlineSamples)-inlineSamples; j < m; j++ {
				h.Observe(sampleDuration(rng))
			}
			folded.mergeHist(h)
			merged.Merge(h.Snapshot())
			if !reflect.DeepEqual(folded, merged) {
				t.Fatalf("trial %d, histogram %d: mergeHist %+v, Merge(Snapshot()) %+v", trial, i, folded, merged)
			}
		}
	}
}
