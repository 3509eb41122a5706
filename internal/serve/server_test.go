package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nemesis/internal/core"
	"nemesis/internal/experiments"
	"nemesis/internal/experiments/sweep"
	"nemesis/internal/sim"
)

// cheapSpec is a cluster cell small enough to simulate in milliseconds.
func cheapSpec(seed int64) experiments.Spec {
	return experiments.Spec{
		Kind:              experiments.KindCluster,
		Machines:          1,
		DomainsPerMachine: 2,
		Servers:           1,
		Measure:           experiments.Duration(50 * time.Millisecond),
		Seed:              seed,
	}
}

func postSpec(t *testing.T, ts *httptest.Server, path string, spec experiments.Spec) *http.Response {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put(&Entry{Key: "a", Body: []byte("A")})
	c.Put(&Entry{Key: "b", Body: []byte("B")})
	if _, ok := c.Get("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put(&Entry{Key: "c", Body: []byte("C")})
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction despite being LRU")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a evicted despite recent use")
	}
	if n := c.Len(); n != 2 {
		t.Errorf("len = %d, want 2", n)
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("stats = %d hits/%d misses, want 2/1", hits, misses)
	}
}

// TestRunCacheHit pins the cache-correctness acceptance criterion: two
// submissions of an identical spec produce byte-identical bodies, the
// second marked as a hit with no new simulation.
func TestRunCacheHit(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := cheapSpec(1)
	first := postSpec(t, ts, "/run", spec)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first run: status %d", first.StatusCode)
	}
	if xc := first.Header.Get("X-Cache"); xc != "miss" {
		t.Errorf("first run X-Cache = %q, want miss", xc)
	}
	body1 := readBody(t, first)

	// Resubmit with noisy-but-equivalent spelling: explicit defaults plus
	// irrelevant fields must still hit the same cache line.
	resp2, err := ts.Client().Post(ts.URL+"/run", "application/json", strings.NewReader(
		`{"seed":1,"measure":"50ms","servers":1,"domains_per_machine":2,"machines":1,"kind":"cluster","figure":7}`))
	if err != nil {
		t.Fatal(err)
	}
	if xc := resp2.Header.Get("X-Cache"); xc != "hit" {
		t.Errorf("second run X-Cache = %q, want hit", xc)
	}
	body2 := readBody(t, resp2)
	if !bytes.Equal(body1, body2) {
		t.Error("cache hit returned different bytes")
	}
	if runs := s.Runs(); runs != 1 {
		t.Errorf("runs = %d, want 1 (second submission must not simulate)", runs)
	}
}

// TestSingleFlight pins the coalescing criterion: N concurrent identical
// submissions execute exactly one sweep.
func TestSingleFlight(t *testing.T) {
	release := make(chan struct{})
	var ran sync.WaitGroup
	ran.Add(1)
	var once sync.Once
	s := newServer(Config{Workers: 2}, func(ctx context.Context, spec experiments.Spec, workers int) (*experiments.Outcome, error) {
		once.Do(ran.Done)
		<-release
		return &experiments.Outcome{Result: &experiments.Result{Spec: spec}}, nil
	})
	defer s.Close()

	spec := cheapSpec(7)
	first, coalesced, err := s.Submit(spec)
	if err != nil || coalesced {
		t.Fatalf("first submit: %v coalesced=%v", err, coalesced)
	}
	ran.Wait() // job is in a worker, blocked on release
	const n = 40
	for i := 0; i < n; i++ {
		j, coalesced, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !coalesced || j != first {
			t.Fatalf("submission %d: coalesced=%v job=%s, want the in-flight job %s", i, coalesced, j.ID, first.ID)
		}
	}
	close(release)
	<-first.Finished()
	if runs := s.Runs(); runs != 1 {
		t.Errorf("runs = %d, want 1 for %d concurrent identical submissions", runs, n+1)
	}
}

// TestQueueBound pins graceful degradation: with one busy worker and the
// queue at depth, further submissions get 429 + Retry-After, and distinct
// specs already accepted all finish.
func TestQueueBound(t *testing.T) {
	release := make(chan struct{})
	s := newServer(Config{Workers: 1, QueueDepth: 2}, func(ctx context.Context, spec experiments.Spec, workers int) (*experiments.Outcome, error) {
		<-release
		return &experiments.Outcome{Result: &experiments.Result{Spec: spec}}, nil
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Fill: one running + two queued. The runner may not have dequeued the
	// first job yet, so accept up to 3 successes before demanding 429s.
	var accepted, rejected []int64
	for i := int64(0); i < 6; i++ {
		resp := postSpec(t, ts, "/jobs", cheapSpec(100+i))
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted = append(accepted, i)
		case http.StatusTooManyRequests:
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Error("429 without Retry-After")
			}
			rejected = append(rejected, i)
		default:
			t.Fatalf("submission %d: unexpected status %d", i, resp.StatusCode)
		}
		readBody(t, resp)
		if i == 0 {
			// Give the single worker a moment to dequeue job 0 so the
			// occupancy picture is deterministic: 1 running + depth 2.
			deadline := time.Now().Add(2 * time.Second)
			for len(s.queue) != 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
	}
	if len(accepted) != 3 {
		t.Errorf("accepted %d submissions (%v), want 3 (1 running + queue depth 2)", len(accepted), accepted)
	}
	if len(rejected) != 3 {
		t.Errorf("rejected %d submissions (%v), want 3", len(rejected), rejected)
	}
	close(release)
	for _, i := range accepted {
		j, _, err := s.Submit(cheapSpec(100 + i)) // coalesces onto the live job
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-j.Finished():
		case <-time.After(5 * time.Second):
			t.Fatalf("accepted job %d never finished", i)
		}
	}
}

// TestSSEProgress drives a 5-cell fake sweep and asserts the event stream
// carries per-cell completions up to 5/5 and a terminal done event.
func TestSSEProgress(t *testing.T) {
	step := make(chan struct{})
	s := newServer(Config{Workers: 1}, func(ctx context.Context, spec experiments.Spec, workers int) (*experiments.Outcome, error) {
		_, err := sweep.MapWorkersContext(ctx, 1, make([]int, 5), func(_ context.Context, i int) (int, error) {
			<-step
			return i, nil
		})
		if err != nil {
			return nil, err
		}
		return &experiments.Outcome{Result: &experiments.Result{Spec: spec}}, nil
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, _, err := s.Submit(cheapSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Get(ts.URL + "/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	go func() {
		for i := 0; i < 5; i++ {
			step <- struct{}{}
		}
	}()

	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			events = append(events, ev)
			if ev.State == JobDone || ev.State == JobFailed {
				break
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	last := events[len(events)-1]
	if last.State != JobDone || last.Done != 5 || last.Total != 5 {
		t.Errorf("terminal event = %+v, want done 5/5", last)
	}
	sawProgress := false
	for _, ev := range events {
		if ev.State == JobRunning && ev.Total == 5 && ev.Done > 0 {
			sawProgress = true
		}
	}
	if !sawProgress {
		t.Errorf("no per-cell progress event observed in %+v", events)
	}
}

func TestCancelRunningJob(t *testing.T) {
	s := newServer(Config{Workers: 1}, func(ctx context.Context, spec experiments.Spec, workers int) (*experiments.Outcome, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, _, err := s.Submit(cheapSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is running, then cancel over HTTP.
	deadline := time.Now().Add(5 * time.Second)
	for j.Snapshot().State != JobRunning && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+j.ID, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	select {
	case <-j.Finished():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled job never finished")
	}
	if st := j.Snapshot().State; st != JobCanceled {
		t.Errorf("state = %s, want canceled", st)
	}
	// A cancelled run must not poison the cache: resubmitting simulates.
	if e, ok := s.cache.Get(j.Key); ok {
		t.Errorf("cancelled job cached an entry: %+v", e)
	}
}

// TestCLIAndServerBytesIdentical pins the satellite contract: the CLI JSON
// export path (experiments.RunSpec + EncodeResult) and the HTTP API return
// byte-identical bodies for the same spec.
func TestCLIAndServerBytesIdentical(t *testing.T) {
	spec := experiments.Spec{
		Kind:              experiments.KindCluster,
		Machines:          2,
		DomainsPerMachine: 10,
		Measure:           experiments.Duration(100 * time.Millisecond),
		Seed:              3,
	}
	out, err := experiments.RunSpec(context.Background(), spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	cliBody, err := experiments.EncodeResult(out.Result)
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp := postSpec(t, ts, "/run", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d", resp.StatusCode)
	}
	apiBody := readBody(t, resp)
	if !bytes.Equal(cliBody, apiBody) {
		t.Errorf("CLI and API bodies differ:\nCLI:\n%s\nAPI:\n%s", cliBody, apiBody)
	}
}

func TestTraceAndAuditArtifacts(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := experiments.Spec{
		Kind:    experiments.KindFigure,
		Figure:  8,
		Measure: experiments.Duration(2 * time.Second),
		Trace:   true,
	}
	resp := postSpec(t, ts, "/jobs", spec)
	var sub submitResponse
	if err := json.Unmarshal(readBody(t, resp), &sub); err != nil {
		t.Fatal(err)
	}
	j, ok := s.Job(sub.ID)
	if !ok {
		t.Fatalf("job %s unknown", sub.ID)
	}
	select {
	case <-j.Finished():
	case <-time.After(2 * time.Minute):
		t.Fatal("figure job never finished")
	}

	for _, path := range []string{"/trace", "/audit"} {
		resp, err := ts.Client().Get(ts.URL + "/jobs/" + sub.ID + path)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		var v any
		if err := json.Unmarshal(body, &v); err != nil {
			t.Errorf("%s artifact is not JSON: %v", path, err)
		}
	}

	// An untraced spec has no artifacts: explicit 404, not an empty body.
	resp2 := postSpec(t, ts, "/run", cheapSpec(1))
	readBody(t, resp2)
	var id string
	s.mu.Lock()
	for _, job := range s.jobs {
		if job.Spec.Kind == experiments.KindCluster {
			id = job.ID
		}
	}
	s.mu.Unlock()
	aresp, err := ts.Client().Get(ts.URL + "/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, aresp)
	if aresp.StatusCode != http.StatusNotFound {
		t.Errorf("untraced trace fetch: status %d, want 404", aresp.StatusCode)
	}
}

func TestBadSpecRejected(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"kind":"warp"}`))
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d (%s), want 400", resp.StatusCode, body)
	}
	if resp2, err := ts.Client().Get(ts.URL + "/jobs/nope"); err == nil {
		readBody(t, resp2)
		if resp2.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job: status %d, want 404", resp2.StatusCode)
		}
	}
}

// TestMisspelledSpecFieldRejected: an unknown field is a client error, not
// a request for the defaults — "mesure" must not silently run the 40 s
// default window.
func TestMisspelledSpecFieldRejected(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/run", "application/json",
		strings.NewReader(`{"kind":"figure","figure":7,"mesure":"5s"}`))
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "mesure") {
		t.Errorf("status %d (%s), want 400 naming the unknown field", resp.StatusCode, body)
	}
	if n := jobCount(s); n != 0 {
		t.Errorf("a rejected spec created %d jobs", n)
	}
}

func jobCount(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// TestOversizedSpecRejected: spec bodies are bounded, so a huge upload is
// refused rather than buffered.
func TestOversizedSpecRejected(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{"kind":"cluster",` + strings.Repeat(" ", maxSpecBytes) + `"seed":1}`
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	reply := readBody(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d (%s), want 413", resp.StatusCode, reply)
	}
	if n := jobCount(s); n != 0 {
		t.Errorf("a rejected spec created %d jobs", n)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 9})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	readBody(t, postSpec(t, ts, "/run", cheapSpec(5)))
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.Unmarshal(readBody(t, resp), &stats); err != nil {
		t.Fatal(err)
	}
	if stats["queue_depth"].(float64) != 9 || stats["runs"].(float64) != 1 {
		t.Errorf("stats = %v", stats)
	}
	var health bytes.Buffer
	hr, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Write(readBody(t, hr))
	if !strings.Contains(health.String(), "ok") {
		t.Errorf("healthz = %q", health.String())
	}
}

// TestJobTableRetention pins the bound on the job table. A running job and
// then maxTerminalJobs+k cache hits (each a job finished at birth) enter it:
// the oldest k hits are evicted and answer 404, the newest stay, the
// running job is never evicted, and nemesis_jobs_evicted_total reads k.
// Once the running job finishes it is the newest terminal job, and one more
// hit goes.
func TestJobTableRetention(t *testing.T) {
	const k = 3
	release := make(chan struct{})
	s := newServer(Config{Workers: 1}, func(ctx context.Context, spec experiments.Spec, workers int) (*experiments.Outcome, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &experiments.Outcome{Result: &experiments.Result{Spec: spec}}, nil
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	status := func(id string) int {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		readBody(t, resp)
		return resp.StatusCode
	}
	evicted := func() string {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body := string(readBody(t, resp))
		families, samples := parseProm(t, body)
		if !families["nemesis_jobs_evicted_total"] {
			t.Fatalf("nemesis_jobs_evicted_total missing from /metrics:\n%s", body)
		}
		for _, line := range samples {
			if v, ok := strings.CutPrefix(line, "nemesis_jobs_evicted_total "); ok {
				return v
			}
		}
		t.Fatalf("no nemesis_jobs_evicted_total sample in:\n%s", body)
		return ""
	}

	running, _, err := s.Submit(cheapSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	hit := cheapSpec(1)
	key, _, err := SpecKey(hit)
	if err != nil {
		t.Fatal(err)
	}
	s.cache.Put(&Entry{Key: key, Body: []byte("{}")})
	var ids []string
	for i := 0; i < maxTerminalJobs+k; i++ {
		j, _, err := s.Submit(hit)
		if err != nil {
			t.Fatal(err)
		}
		if !j.Cached {
			t.Fatalf("submission %d missed the cache", i)
		}
		ids = append(ids, j.ID)
	}

	if n := jobCount(s); n != maxTerminalJobs+1 {
		t.Errorf("job table holds %d jobs, want %d terminal + 1 live", n, maxTerminalJobs)
	}
	for _, c := range []struct{ i, want int }{
		{0, http.StatusNotFound}, {k - 1, http.StatusNotFound},
		{k, http.StatusOK}, {len(ids) - 1, http.StatusOK},
	} {
		if got := status(ids[c.i]); got != c.want {
			t.Errorf("hit %d (%s): status %d, want %d", c.i, ids[c.i], got, c.want)
		}
	}
	if got := status(running.ID); got != http.StatusOK {
		t.Errorf("live job %s: status %d, want 200", running.ID, got)
	}
	if got := evicted(); got != strconv.Itoa(k) {
		t.Errorf("nemesis_jobs_evicted_total = %s, want %d", got, k)
	}

	close(release)
	<-running.Finished()
	// The worker retires the job just after it finishes.
	for deadline := time.Now().Add(5 * time.Second); s.evicted.Load() != k+1; {
		if time.Now().After(deadline) {
			t.Fatalf("evicted = %d after the live job finished, want %d", s.evicted.Load(), k+1)
		}
		time.Sleep(time.Millisecond)
	}
	if got := status(ids[k]); got != http.StatusNotFound {
		t.Errorf("hit %d after the live job retired: status %d, want 404", k, got)
	}
	if got := status(running.ID); got != http.StatusOK {
		t.Errorf("retired job %s: status %d, want 200", running.ID, got)
	}
	if n := jobCount(s); n != maxTerminalJobs {
		t.Errorf("job table holds %d jobs, want %d", n, maxTerminalJobs)
	}
}

// TestProcPanicFailsOnlyItsJob plants a panicking process in a job's world
// through core.NewHook, once on the RunSpec path (a cluster cell) and once
// on the warm-pool path (an untraced Fig. 8). Each job fails with the panic
// and counts as failed on /metrics, the daemon serves the same spec next,
// and no goroutine of the failed worlds is left behind.
func TestProcPanicFailsOnlyItsJob(t *testing.T) {
	waitGoroutines := func(what string, before int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%s: goroutines = %d, baseline %d: leak", what, n, before)
		}
	}
	run := func(h http.Handler, spec experiments.Spec) *httptest.ResponseRecorder {
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(b)))
		return rec
	}
	plant := func(sys *core.System) {
		sys.Sim.Spawn("faulty", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			panic("planted fault")
		})
	}
	defer func() { core.NewHook = nil }()

	before := runtime.NumGoroutine()
	s := New(Config{Workers: 1})
	h := s.Handler()
	running := runtime.NumGoroutine()
	fig8 := experiments.Spec{Kind: experiments.KindFigure, Figure: 8, Measure: experiments.Duration(time.Second), Seed: 41}
	for i, spec := range []experiments.Spec{cheapSpec(41), fig8} {
		core.NewHook = plant
		rec := run(h, spec)
		core.NewHook = nil
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "planted fault") {
			t.Errorf("%s: planted panic answered %d %q, want 500 naming the panic", spec.Kind, rec.Code, rec.Body.String())
		}
		if i == 0 {
			// No warm world is resident yet, so every goroutine the
			// failed run started must be gone.
			waitGoroutines("after the failed cluster job", running)
		}
		if rec = run(h, spec); rec.Code != http.StatusOK {
			t.Errorf("%s: the next job answered %d %q, want 200", spec.Kind, rec.Code, rec.Body.String())
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{`nemesis_jobs{state="failed"} 2`, `nemesis_jobs{state="done"} 2`} {
		if !strings.Contains(rec.Body.String(), want+"\n") {
			t.Errorf("/metrics lacks %q:\n%s", want, rec.Body.String())
		}
	}
	s.Close()
	waitGoroutines("after Close", before)
}
