package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"nemesis/internal/experiments"
)

func figSpec(fig int, measure time.Duration) experiments.Spec {
	return experiments.Spec{
		Kind:    experiments.KindFigure,
		Figure:  fig,
		Measure: experiments.Duration(measure),
	}
}

func TestWarmPrefixKey(t *testing.T) {
	k1, ok := warmPrefixKey(figSpec(7, time.Second))
	if !ok || k1 == "" {
		t.Fatalf("fig7 spec not poolable")
	}
	k2, ok := warmPrefixKey(figSpec(7, 2*time.Second))
	if !ok || k2 != k1 {
		t.Errorf("measure window must not affect the warm-prefix key: %s vs %s", k1, k2)
	}
	k8, ok := warmPrefixKey(figSpec(8, time.Second))
	if !ok || k8 == k1 {
		t.Errorf("fig8 must hash to a different prefix than fig7")
	}
	traced := figSpec(7, time.Second)
	traced.Trace = true
	if _, ok := warmPrefixKey(traced); ok {
		t.Errorf("traced specs must not be poolable")
	}
	if _, ok := warmPrefixKey(cheapSpec(1)); ok {
		t.Errorf("cluster specs must not be poolable")
	}
}

// TestWarmPoolReuse submits, for figure 7 and for figure 8's write path,
// two jobs that differ only in their measured window: the second must fork
// the world the first one warmed (one miss, then one hit, per figure), and
// every body must be byte-identical to what the CLI path produces for the
// same spec — residency is a latency optimisation, never part of result
// identity.
func TestWarmPoolReuse(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if s.warm == nil {
		t.Fatal("production server should enable the warm pool by default")
	}

	for _, fig := range []int{7, 8} {
		for _, measure := range []time.Duration{time.Second, 2 * time.Second} {
			spec := figSpec(fig, measure)
			out, err := experiments.RunSpec(context.Background(), spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := experiments.EncodeResult(out.Result)
			if err != nil {
				t.Fatal(err)
			}
			resp := postSpec(t, ts, "/run", spec)
			body := readBody(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("fig %d, %v: status %d: %s", fig, measure, resp.StatusCode, body)
			}
			if !bytes.Equal(want, body) {
				t.Errorf("fig %d, %v: pooled body differs from CLI body:\nCLI:\n%s\nAPI:\n%s", fig, measure, want, body)
			}
		}
	}

	resident, hits, misses := s.warm.stats()
	if resident != 2 || hits != 2 || misses != 2 {
		t.Errorf("pool stats after two sibling jobs per figure: resident=%d hits=%d misses=%d, want 2/2/2",
			resident, hits, misses)
	}

	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.Unmarshal(readBody(t, resp), &stats); err != nil {
		t.Fatal(err)
	}
	if stats["warm_worlds"].(float64) != 2 || stats["warm_hits"].(float64) != 2 {
		t.Errorf("stats endpoint: warm_worlds=%v warm_hits=%v warm_misses=%v",
			stats["warm_worlds"], stats["warm_hits"], stats["warm_misses"])
	}
}

// TestWarmPoolEviction: the pool is a bounded LRU; inserting past its
// capacity evicts the least recently used world.
func TestWarmPoolEviction(t *testing.T) {
	built := 0
	p := newWarmPool(1)
	build := func() (*experiments.PagingWarm, error) {
		built++
		opt := experiments.DefaultPagingOptions()
		opt.Measure = time.Second
		return experiments.WarmPaging(opt)
	}
	for _, key := range []string{"a", "b", "a"} {
		w, err := p.fork(key, build)
		if err != nil {
			t.Fatal(err)
		}
		w.Sys.Shutdown()
	}
	defer p.close()
	if built != 3 {
		t.Errorf("built %d worlds, want 3 (a evicted by b, rebuilt on reuse)", built)
	}
	resident, hits, misses := p.stats()
	if resident != 1 || hits != 0 || misses != 3 {
		t.Errorf("stats: resident=%d hits=%d misses=%d, want 1/0/3", resident, hits, misses)
	}
}

// TestWarmEntryEvictedBeforeFork drives the eviction race deterministically:
// a job holds an entry the pool has already evicted (the eviction goroutine
// ran first). The job must still get a working fork, but the world it warms
// for that must not become resident in the orphaned entry — nothing would
// ever shut it down, and its service procs would stay parked forever.
func TestWarmEntryEvictedBeforeFork(t *testing.T) {
	before := runtime.NumGoroutine()
	e := &warmEntry{key: "k"}
	e.evict()

	var oneShot *experiments.PagingWarm
	world, err := e.fork(func() (*experiments.PagingWarm, error) {
		opt := experiments.DefaultPagingOptions()
		opt.VirtBytes = 1 << 20
		w, err := experiments.WarmPaging(opt)
		oneShot = w
		return w, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.warm != nil {
		t.Error("evicted entry became resident again")
	}
	if n := oneShot.Sys.Sim.Live(); n != 0 {
		t.Errorf("one-shot world still has %d live procs after the fork", n)
	}
	if _, err := world.Measure(time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines = %d after the job, baseline %d: leak", n, before)
	}
}

// TestWarmPoolConcurrentEviction races jobs on two prefixes through a
// one-world pool, so evictions land while other jobs hold or build
// entries. Every job must get a working fork, and once the pool closes no
// world may be left running.
func TestWarmPoolConcurrentEviction(t *testing.T) {
	before := runtime.NumGoroutine()
	p := newWarmPool(1)
	build := func() (*experiments.PagingWarm, error) {
		opt := experiments.DefaultPagingOptions()
		opt.VirtBytes = 256 << 10
		return experiments.WarmPaging(opt)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		key := []string{"a", "b"}[i%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := p.fork(key, build)
			if err != nil {
				t.Error(err)
				return
			}
			w.Sys.Shutdown()
		}()
	}
	wg.Wait()
	p.close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines = %d after close, baseline %d: leak", n, before)
	}
}
