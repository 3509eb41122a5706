package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nemesis/internal/experiments"
	"nemesis/internal/experiments/sweep"
)

// Config sizes the daemon. The zero value is usable: every field has a
// default.
type Config struct {
	// Workers is the number of jobs simulated concurrently
	// (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the jobs waiting for a worker; submissions beyond
	// it are rejected with 429 + Retry-After (default 256).
	QueueDepth int
	// CacheEntries bounds the result LRU (default 512).
	CacheEntries int
	// JobTimeout caps one job's wall-clock run (default 10m). A timed-out
	// job fails; its cells stop at the next cell boundary.
	JobTimeout time.Duration
	// SweepWorkers caps each job's sweep fan-out (default 0 =
	// NEMESIS_SWEEP_WORKERS or GOMAXPROCS). Results are byte-identical at
	// any value.
	SweepWorkers int
	// WarmWorlds bounds the LRU of resident warmed simulations that
	// poolable specs fork instead of cold-booting (default 8, negative
	// disables). Residency only affects latency: pooled and unpooled
	// answers are byte-identical.
	WarmWorlds int
	// Logger receives structured request and job lifecycle logs, every
	// line keyed by job ID once a request resolves to one. Nil (the
	// default) disables logging entirely.
	Logger *slog.Logger
}

func (c *Config) fillDefaults() {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 256
	}
	if c.CacheEntries < 1 {
		c.CacheEntries = 512
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.WarmWorlds == 0 {
		c.WarmWorlds = 8
	}
}

// ErrQueueFull rejects submissions beyond the advertised queue bound.
var ErrQueueFull = errors.New("serve: job queue full")

// maxTerminalJobs bounds the finished (done, failed or canceled) jobs the
// job table keeps for status and result lookups. Past it the oldest
// finished job is evicted and its id answers 404; queued and running jobs
// are never evicted. A cache hit is a job too, finished at birth, so
// without the bound the table would grow with every request.
const maxTerminalJobs = 4096

// Server is the experiments-as-a-service engine: spec → hash → cache /
// single-flight / bounded queue → sweep. It is transport-independent;
// Handler exposes it over HTTP.
type Server struct {
	cfg   Config
	run   runFunc
	cache *Cache
	// warm is the resident warm-world pool, nil when disabled or when the
	// server runs a stub runner (tests): the pool bypasses runFunc, so it
	// only exists alongside the production runner.
	warm *warmPool

	mu       sync.Mutex
	jobs     map[string]*Job // live jobs and the newest terminal ones, by id
	terminal []string        // ids of the terminal jobs in jobs, oldest first
	active   map[string]*Job // queued/running job per spec key (single-flight)
	seq      int64

	queue      chan *Job
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	runs     atomic.Int64 // simulations actually started (cache/coalesce bypass this)
	rejected atomic.Int64 // submissions refused with ErrQueueFull
	evicted  atomic.Int64 // terminal jobs dropped from the table (maxTerminalJobs)
}

// runFunc is the job runner — experiments.RunSpec in production, a stub in
// queue/SSE tests.
type runFunc func(ctx context.Context, spec experiments.Spec, workers int) (*experiments.Outcome, error)

// New starts a server and its worker pool.
func New(cfg Config) *Server {
	s := newServer(cfg, experiments.RunSpec)
	if s.cfg.WarmWorlds > 0 {
		s.warm = newWarmPool(s.cfg.WarmWorlds)
	}
	return s
}

func newServer(cfg Config, run runFunc) *Server {
	cfg.fillDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		run:        run,
		cache:      NewCache(cfg.CacheEntries),
		jobs:       make(map[string]*Job),
		active:     make(map[string]*Job),
		queue:      make(chan *Job, cfg.QueueDepth),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Close stops accepting work, cancels in-flight jobs at their next cell
// boundary, and waits for the workers to unwind.
func (s *Server) Close() {
	s.baseCancel()
	s.wg.Wait()
	if s.warm != nil {
		s.warm.close()
	}
}

// Runs reports how many simulations the server actually executed — the
// counter cache-correctness tests assert on.
func (s *Server) Runs() int64 { return s.runs.Load() }

// Submit content-addresses a spec and returns its job. Outcomes:
//
//   - cache hit: a fresh job already in the terminal done state, Cached.
//   - coalesced: an identical spec is queued or running; that same job is
//     returned (true) and the underlying sweep runs exactly once.
//   - fresh: a new job entered the queue.
//   - ErrQueueFull: the queue is at its advertised bound.
func (s *Server) Submit(spec experiments.Spec) (job *Job, coalesced bool, err error) {
	key, norm, err := SpecKey(spec)
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.active[key]; ok {
		return j, true, nil
	}
	if e, ok := s.cache.Get(key); ok {
		j := newJob(s.nextIDLocked(), key, norm)
		j.Cached = true
		j.state = JobDone
		j.entry = e
		close(j.finished)
		s.jobs[j.ID] = j
		s.retireLocked(j)
		return j, false, nil
	}
	j := newJob(s.nextIDLocked(), key, norm)
	select {
	case s.queue <- j:
	default:
		s.rejected.Add(1)
		return nil, false, ErrQueueFull
	}
	s.jobs[j.ID] = j
	s.active[key] = j
	return j, false, nil
}

// retireLocked records that j has reached a terminal state and evicts the
// oldest terminal job once more than maxTerminalJobs are retained; callers
// hold s.mu.
func (s *Server) retireLocked(j *Job) {
	s.terminal = append(s.terminal, j.ID)
	if len(s.terminal) > maxTerminalJobs {
		delete(s.jobs, s.terminal[0])
		s.terminal = s.terminal[1:]
		s.evicted.Add(1)
	}
}

// nextIDLocked mints a job id; callers hold s.mu.
func (s *Server) nextIDLocked() string {
	s.seq++
	return fmt.Sprintf("j%d", s.seq)
}

// Job returns a submitted job by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

func (s *Server) runJob(j *Job) {
	// Every path out of here leaves j terminal, including a job cancelled
	// while it was queued.
	defer func() {
		s.mu.Lock()
		if s.active[j.Key] == j {
			delete(s.active, j.Key)
		}
		s.retireLocked(j)
		s.mu.Unlock()
	}()

	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	defer cancel()
	if !j.start(cancel) {
		return // cancelled while queued
	}
	ctx = sweep.WithProgress(ctx, j.progress)
	s.runs.Add(1)
	s.logJob("job running", j)
	began := time.Now()
	var out *experiments.Outcome
	var err error
	if key, poolable := warmPrefixKey(j.Spec); poolable && s.warm != nil {
		out, err = s.runWarmFigure(ctx, key, j)
	} else {
		out, err = s.run(ctx, j.Spec, s.cfg.SweepWorkers)
	}
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			j.markCanceled("canceled mid-run")
		case errors.Is(err, context.DeadlineExceeded):
			j.fail(fmt.Sprintf("job exceeded its %v timeout", s.cfg.JobTimeout))
		default:
			j.fail(err.Error())
		}
		s.logJob("job finished", j, "state", j.Snapshot().State,
			"duration_ms", float64(time.Since(began).Microseconds())/1e3, "error", err.Error())
		return
	}
	body, err := experiments.EncodeResult(out.Result)
	if err != nil {
		j.fail(err.Error())
		return
	}
	e := &Entry{Key: j.Key, Body: body, Trace: out.Trace, Audit: out.Audit}
	s.cache.Put(e)
	j.complete(e)
	s.logJob("job finished", j, "state", j.Snapshot().State,
		"duration_ms", float64(time.Since(began).Microseconds())/1e3)
}

// runWarmFigure answers a poolable figure job by forking the resident
// warmed world for its prefix (warming it on first use) and measuring only
// the job's own window. The result bytes are identical to what the full
// runner would produce for the same spec; only the boot phase is skipped.
// It runs as one sweep cell, as RunSpec runs a figure: progress reports 1/1
// and a process panic becomes the job's error.
func (s *Server) runWarmFigure(ctx context.Context, key string, j *Job) (*experiments.Outcome, error) {
	out, err := sweep.MapWorkersContext(ctx, 1, []int{0}, func(context.Context, int) (*experiments.Outcome, error) {
		world, err := s.warm.fork(key, func() (*experiments.PagingWarm, error) {
			return experiments.WarmPagingSpec(j.Spec)
		})
		if err != nil {
			return nil, err
		}
		res, err := experiments.FigureFromWarm(world, j.Spec)
		if err != nil {
			return nil, err
		}
		return &experiments.Outcome{Result: res}, nil
	})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// ---- HTTP layer ----

// submitResponse is the POST /jobs reply.
type submitResponse struct {
	Event
	Key       string `json:"key"`
	Cached    bool   `json:"cached"`
	Coalesced bool   `json:"coalesced"`
}

// Handler returns the HTTP API:
//
//	POST   /jobs             submit a spec; 202 {id,key,state,cached,coalesced}
//	GET    /jobs/{id}        job status {id,state,done,total,error}
//	GET    /jobs/{id}/events SSE progress stream until the job is terminal
//	GET    /jobs/{id}/result canonical result JSON (X-Cache: hit|miss)
//	GET    /jobs/{id}/trace  Perfetto trace artifact (specs with trace:true)
//	GET    /jobs/{id}/audit  audit-log JSON artifact
//	DELETE /jobs/{id}        cancel a queued/running job
//	POST   /run              submit and wait: the result body in one round trip
//	GET    /healthz          liveness
//	GET    /stats            cache/queue/run counters
//	GET    /metrics          Prometheus text exposition (jobs, queue, cache, warm pool)
//
// With Config.Logger set, every request is logged through it — keyed by job
// ID once the request resolves to one.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleJobArtifact(func(e *Entry) []byte { return e.Trace }))
	mux.HandleFunc("GET /jobs/{id}/audit", s.handleJobArtifact(func(e *Entry) []byte { return e.Audit }))
	mux.HandleFunc("DELETE /jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.withLogging(mux)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// maxSpecBytes bounds a submitted spec body. A spec is a few hundred bytes
// even with long netswap axes; anything near this size is not one.
const maxSpecBytes = 64 << 10

func (s *Server) submitFromRequest(w http.ResponseWriter, r *http.Request) (*Job, bool, bool) {
	var spec experiments.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	// A misspelled knob must fail loudly, not silently run the defaults.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Sprintf("bad spec: %v", err))
		return nil, false, false
	}
	j, coalesced, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
		return nil, false, false
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
		return nil, false, false
	}
	noteJob(r, j.ID)
	return j, coalesced, true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	j, coalesced, ok := s.submitFromRequest(w, r)
	if !ok {
		return
	}
	setCacheHeader(w, j)
	status := http.StatusAccepted
	if j.Cached {
		status = http.StatusOK
	}
	writeJSON(w, status, submitResponse{Event: j.Snapshot(), Key: j.Key, Cached: j.Cached, Coalesced: coalesced})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	j, _, ok := s.submitFromRequest(w, r)
	if !ok {
		return
	}
	select {
	case <-j.Finished():
	case <-r.Context().Done():
		return
	}
	s.writeResult(w, j)
}

func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", r.PathValue("id")))
		return nil, false
	}
	noteJob(r, j.ID)
	return j, true
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFromPath(w, r); ok {
		writeJSON(w, http.StatusOK, submitResponse{Event: j.Snapshot(), Key: j.Key, Cached: j.Cached})
	}
}

func setCacheHeader(w http.ResponseWriter, j *Job) {
	if j.Cached {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
}

func (s *Server) writeResult(w http.ResponseWriter, j *Job) {
	ev := j.Snapshot()
	switch ev.State {
	case JobDone:
		e := j.Entry()
		setCacheHeader(w, j)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(e.Body)
	case JobFailed:
		writeError(w, http.StatusInternalServerError, ev.Error)
	case JobCanceled:
		writeError(w, http.StatusGone, "job canceled")
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, fmt.Sprintf("job %s is %s (%d/%d cells)", ev.ID, ev.State, ev.Done, ev.Total))
	}
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFromPath(w, r); ok {
		s.writeResult(w, j)
	}
}

func (s *Server) handleJobArtifact(pick func(*Entry) []byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.jobFromPath(w, r)
		if !ok {
			return
		}
		e := j.Entry()
		if e == nil {
			writeError(w, http.StatusConflict, "job has no result yet")
			return
		}
		b := pick(e)
		if len(b) == 0 {
			writeError(w, http.StatusNotFound, "no artifact for this spec (submit with \"trace\": true)")
			return
		}
		setCacheHeader(w, j)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(b)
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	if !j.Cancel() {
		writeError(w, http.StatusConflict, fmt.Sprintf("job is already %s", j.Snapshot().State))
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

// handleJobEvents streams the job's progress as server-sent events — one
// `event: <state>` + JSON data frame per transition — closing after the
// terminal event.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	ch, unsub := j.Subscribe()
	defer unsub()
	emit := func(ev Event) {
		data, _ := json.Marshal(ev)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.State, data)
		if canFlush {
			flusher.Flush()
		}
	}
	for {
		select {
		case ev := <-ch:
			emit(ev)
			if ev.State == JobDone || ev.State == JobFailed || ev.State == JobCanceled {
				return
			}
		case <-j.Finished():
			// Drain anything already queued, then emit the terminal state.
			for {
				select {
				case ev := <-ch:
					if ev.State == JobDone || ev.State == JobFailed || ev.State == JobCanceled {
						emit(ev)
						return
					}
					emit(ev)
				default:
					emit(j.Snapshot())
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	hits, misses := s.cache.Stats()
	s.mu.Lock()
	jobs := len(s.jobs)
	activeJobs := len(s.active)
	s.mu.Unlock()
	var warmResident int
	var warmHits, warmMisses int64
	if s.warm != nil {
		warmResident, warmHits, warmMisses = s.warm.stats()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"warm_worlds":   warmResident,
		"warm_hits":     warmHits,
		"warm_misses":   warmMisses,
		"jobs":          jobs,
		"active":        activeJobs,
		"queue_len":     len(s.queue),
		"queue_depth":   s.cfg.QueueDepth,
		"workers":       s.cfg.Workers,
		"cache_entries": s.cache.Len(),
		"cache_hits":    hits,
		"cache_misses":  misses,
		"runs":          s.runs.Load(),
		"rejected":      s.rejected.Load(),
	})
}
