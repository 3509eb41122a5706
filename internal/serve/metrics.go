package serve

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"
)

// metricFamily renders one Prometheus family header followed by its samples.
type metricFamily struct {
	name, typ, help string
	samples         []metricSample
}

type metricSample struct {
	labels string // rendered `{k="v"}` block, "" for none
	value  float64
}

func (f *metricFamily) add(labels string, v float64) {
	f.samples = append(f.samples, metricSample{labels: labels, value: v})
}

func (f *metricFamily) write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
		return err
	}
	for _, s := range f.samples {
		if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, strconv.FormatFloat(s.value, 'g', -1, 64)); err != nil {
			return err
		}
	}
	return nil
}

// jobStates is the fixed label order of the nemesis_jobs family: every state
// is always exported (zeros included) so dashboards never see series appear.
var jobStates = []JobState{JobQueued, JobRunning, JobDone, JobFailed, JobCanceled}

// WriteMetrics renders the live metrics plane in Prometheus text exposition
// format (0.0.4): job lifecycle counts, queue and worker occupancy, result-
// cache and warm-world hit counters, and per-live-job sweep progress — cells
// done/total plus the cell completion rate derived from the job's wall-clock
// runtime (the closest live proxy for simulation throughput the progress
// callbacks expose). Families and samples come out in a fixed order; only
// the rate values vary between scrapes of an idle server.
func (s *Server) WriteMetrics(w io.Writer) error {
	hits, misses := s.cache.Stats()
	cacheLen := s.cache.Len()
	var warmResident int
	var warmHits, warmMisses int64
	if s.warm != nil {
		warmResident, warmHits, warmMisses = s.warm.stats()
	}

	type liveJob struct {
		id          string
		done, total int
		rate        float64
	}
	states := map[JobState]int{}
	var live []liveJob
	s.mu.Lock()
	queueLen := len(s.queue)
	for _, j := range s.jobs {
		ev := j.Snapshot()
		states[ev.State]++
		if ev.State != JobQueued && ev.State != JobRunning {
			continue
		}
		lj := liveJob{id: ev.ID, done: ev.Done, total: ev.Total}
		if at := j.Started(); !at.IsZero() {
			if dt := time.Since(at).Seconds(); dt > 0 {
				lj.rate = float64(ev.Done) / dt
			}
		}
		live = append(live, lj)
	}
	s.mu.Unlock()
	sort.Slice(live, func(i, k int) bool { return live[i].id < live[k].id })

	jobs := metricFamily{name: "nemesis_jobs", typ: "gauge",
		help: "Jobs in the job table, by lifecycle state (the oldest terminal jobs are evicted)."}
	for _, st := range jobStates {
		jobs.add(fmt.Sprintf(`{state=%q}`, st), float64(states[st]))
	}
	queue := metricFamily{name: "nemesis_queue_len", typ: "gauge",
		help: "Jobs waiting for a worker."}
	queue.add("", float64(queueLen))
	queueCap := metricFamily{name: "nemesis_queue_capacity", typ: "gauge",
		help: "Queued-job bound before submissions are rejected."}
	queueCap.add("", float64(s.cfg.QueueDepth))
	workers := metricFamily{name: "nemesis_workers", typ: "gauge",
		help: "Concurrent job slots."}
	workers.add("", float64(s.cfg.Workers))
	rejected := metricFamily{name: "nemesis_rejected_total", typ: "counter",
		help: "Submissions refused because the queue was full."}
	rejected.add("", float64(s.rejected.Load()))
	runs := metricFamily{name: "nemesis_runs_total", typ: "counter",
		help: "Simulations actually executed (cache hits and coalesced submissions bypass this)."}
	runs.add("", float64(s.runs.Load()))
	evicted := metricFamily{name: "nemesis_jobs_evicted_total", typ: "counter",
		help: "Terminal jobs evicted from the job table; their ids answer 404."}
	evicted.add("", float64(s.evicted.Load()))

	cacheEntries := metricFamily{name: "nemesis_cache_entries", typ: "gauge",
		help: "Results resident in the content-addressed cache."}
	cacheEntries.add("", float64(cacheLen))
	cacheHits := metricFamily{name: "nemesis_cache_hits_total", typ: "counter",
		help: "Submissions answered from the result cache."}
	cacheHits.add("", float64(hits))
	cacheMisses := metricFamily{name: "nemesis_cache_misses_total", typ: "counter",
		help: "Submissions that missed the result cache."}
	cacheMisses.add("", float64(misses))

	warmWorlds := metricFamily{name: "nemesis_warm_worlds", typ: "gauge",
		help: "Warmed simulations resident in the fork pool."}
	warmWorlds.add("", float64(warmResident))
	warmHitsF := metricFamily{name: "nemesis_warm_hits_total", typ: "counter",
		help: "Jobs that forked a resident warmed world instead of cold-booting."}
	warmHitsF.add("", float64(warmHits))
	warmMissesF := metricFamily{name: "nemesis_warm_misses_total", typ: "counter",
		help: "Poolable jobs that had to warm their world first."}
	warmMissesF.add("", float64(warmMisses))

	cellsDone := metricFamily{name: "nemesis_job_cells_done", typ: "gauge",
		help: "Sweep cells completed by each live (queued or running) job."}
	cellsTotal := metricFamily{name: "nemesis_job_cells_total", typ: "gauge",
		help: "Sweep cells each live job will run in total (0 until the sweep starts)."}
	cellsRate := metricFamily{name: "nemesis_job_cells_per_second", typ: "gauge",
		help: "Cell completion rate of each live job over its wall-clock runtime."}
	for _, lj := range live {
		labels := fmt.Sprintf(`{job=%q}`, lj.id)
		cellsDone.add(labels, float64(lj.done))
		cellsTotal.add(labels, float64(lj.total))
		cellsRate.add(labels, lj.rate)
	}

	for _, f := range []*metricFamily{
		&jobs, &evicted, &queue, &queueCap, &workers, &rejected, &runs,
		&cacheEntries, &cacheHits, &cacheMisses,
		&warmWorlds, &warmHitsF, &warmMissesF,
		&cellsDone, &cellsTotal, &cellsRate,
	} {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.WriteMetrics(w)
}
