package serve

import (
	"context"
	"sync"
	"time"

	"nemesis/internal/experiments"
)

// JobState is a job's lifecycle phase.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Event is one progress notification, also the SSE payload. Done/Total
// count the job's top-level sweep cells; events are cumulative, so a
// dropped intermediate event never loses information.
type Event struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Done  int      `json:"done"`
	Total int      `json:"total"`
	Error string   `json:"error,omitempty"`
}

// Job is one submitted spec working through the queue. All mutable state
// sits behind mu; the immutable identity fields are set at creation.
type Job struct {
	ID   string
	Key  string
	Spec experiments.Spec
	// Cached marks a job answered from the result cache with no simulation.
	Cached bool

	mu       sync.Mutex
	state    JobState
	done     int
	total    int
	errMsg   string
	entry    *Entry
	subs     map[chan Event]struct{}
	cancel   context.CancelFunc
	started  time.Time     // wall clock at queued → running, zero before
	finished chan struct{} // closed on done/failed/canceled
}

func newJob(id, key string, spec experiments.Spec) *Job {
	return &Job{
		ID:       id,
		Key:      key,
		Spec:     spec,
		state:    JobQueued,
		subs:     make(map[chan Event]struct{}),
		finished: make(chan struct{}),
	}
}

// Snapshot returns the job's current event view.
func (j *Job) Snapshot() Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.eventLocked()
}

func (j *Job) eventLocked() Event {
	return Event{ID: j.ID, State: j.state, Done: j.done, Total: j.total, Error: j.errMsg}
}

// Entry returns the finished result entry, or nil before completion.
func (j *Job) Entry() *Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.entry
}

// Finished is closed once the job reaches a terminal state.
func (j *Job) Finished() <-chan struct{} { return j.finished }

// terminal reports whether the job has reached a terminal state.
func (j *Job) terminal() bool {
	select {
	case <-j.finished:
		return true
	default:
		return false
	}
}

// Subscribe registers a progress listener. The current snapshot is
// delivered first, so late subscribers see the latest state immediately.
// Intermediate events may be dropped under backpressure (they are
// cumulative); the terminal transition is always observable via Finished.
func (j *Job) Subscribe() (<-chan Event, func()) {
	ch := make(chan Event, 16)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	ch <- j.eventLocked()
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

func (j *Job) notifyLocked() {
	ev := j.eventLocked()
	for ch := range j.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop, the next event carries newer counts
		}
	}
}

// progress records a per-cell completion from the sweep runner.
func (j *Job) progress(done, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobRunning {
		return
	}
	// Progress callbacks race across worker goroutines; keep the max.
	if done > j.done {
		j.done = done
	}
	j.total = total
	j.notifyLocked()
}

// start moves queued → running and installs the run's cancel hook. It
// returns false if the job was cancelled while queued.
func (j *Job) start(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	j.cancel = cancel
	j.started = time.Now()
	j.notifyLocked()
	return true
}

// Started returns the wall-clock instant the job began running (zero while
// still queued). The /metrics plane derives cell-completion rates from it.
func (j *Job) Started() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.started
}

// complete finishes the job with its result entry.
func (j *Job) complete(e *Entry) {
	j.finish(JobDone, "", e)
}

// fail finishes the job with an error message.
func (j *Job) fail(msg string) {
	j.finish(JobFailed, msg, nil)
}

func (j *Job) finish(state JobState, msg string, e *Entry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == JobDone || j.state == JobFailed || j.state == JobCanceled {
		return
	}
	j.state = state
	j.errMsg = msg
	j.entry = e
	if state == JobDone && j.total > 0 {
		j.done = j.total
	}
	j.notifyLocked()
	close(j.finished)
}

// Cancel requests cancellation: a queued job terminates immediately, a
// running job's context is cancelled and the worker records the terminal
// state when the in-flight cell finishes. Returns false on jobs already
// terminal.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	cancel := j.cancel
	state := j.state
	j.mu.Unlock()
	switch state {
	case JobQueued:
		j.finish(JobCanceled, "canceled while queued", nil)
		return true
	case JobRunning:
		if cancel != nil {
			cancel()
		}
		return true
	default:
		return false
	}
}
