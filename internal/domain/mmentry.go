package domain

import (
	"slices"

	"nemesis/internal/obs"
	"nemesis/internal/sim"
	"nemesis/internal/vm"
)

// job is one unit of work for the MMEntry's worker: either a fault whose
// fast-path resolution returned Retry, or a revocation notification.
type job struct {
	fault  *vm.Fault // nil for revocation jobs
	k      int       // frames to free, for revocation jobs
	done   sim.Cond
	ok     bool
	isDone bool
}

// MMEntry is the memory-management entry: the notification handler attached
// to the kernel's fault endpoint, plus worker threads that carry out the
// operations the handler cannot (anything requiring IDC). It does not
// resolve faults itself: it coordinates the domain's stretch drivers.
type MMEntry struct {
	dom     *Domain
	queue   []*job
	qhead   int
	free    []*job // recycled jobs
	wake    sim.Cond
	worker  *sim.Proc
	stopped bool

	// gQueue tracks the outstanding-job depth (nil when telemetry is off).
	gQueue *obs.Gauge
}

func newMMEntry(d *Domain) *MMEntry {
	mm := &MMEntry{dom: d}
	if d.env.Obs != nil {
		mm.gQueue = d.env.Obs.Gauge("domain", "mm_queue", d.name)
	}
	mm.worker = d.env.Sim.Spawn(d.name+"/mm-worker", mm.run)
	return mm
}

// QueueLen returns the number of outstanding jobs (for tests).
func (mm *MMEntry) QueueLen() int { return len(mm.queue) - mm.qhead }

// getJob checks a job out of the free list. The done Cond is empty whenever
// a job is recycled (its one waiter has been woken); every other field is
// reset.
func (mm *MMEntry) getJob() *job {
	if n := len(mm.free); n > 0 {
		j := mm.free[n-1]
		mm.free[n-1] = nil
		mm.free = mm.free[:n-1]
		j.fault, j.k, j.ok, j.isDone = nil, 0, false, false
		return j
	}
	return &job{}
}

// putJob recycles a finished job. Fault jobs are returned by the resolver
// (which reads the result last); revocation jobs by the worker.
func (mm *MMEntry) putJob(j *job) { mm.free = append(mm.free, j) }

// enqueue appends a job, compacting consumed head space when drained.
func (mm *MMEntry) enqueue(j *job) {
	if mm.qhead > 0 && mm.qhead == len(mm.queue) {
		mm.queue = mm.queue[:0]
		mm.qhead = 0
	}
	mm.queue = append(mm.queue, j)
	mm.gQueue.Set(int64(mm.QueueLen()))
	mm.wake.Signal()
}

// resolve blocks p until a worker has processed fault f, reporting success.
func (mm *MMEntry) resolve(p *sim.Proc, f *vm.Fault) bool {
	j := mm.getJob()
	j.fault = f
	mm.enqueue(j)
	for !j.isDone {
		j.done.Wait(p)
	}
	ok := j.ok
	mm.putJob(j)
	return ok
}

// enqueueRevocation queues an asynchronous revocation job.
func (mm *MMEntry) enqueueRevocation(k int) {
	j := mm.getJob()
	j.k = k
	mm.enqueue(j)
}

// kill stops the worker.
func (mm *MMEntry) kill() {
	mm.stopped = true
	if mm.worker != nil && !mm.worker.Done() {
		mm.worker.Kill()
	}
	// Fail outstanding jobs so blocked threads unwind via their own kill.
	for _, j := range mm.queue[mm.qhead:] {
		j.isDone = true
		j.done.Broadcast()
	}
	mm.queue, mm.qhead = nil, 0
}

// run is the worker thread: it pops jobs and invokes stretch drivers with
// IDC allowed.
func (mm *MMEntry) run(p *sim.Proc) {
	d := mm.dom
	for !mm.stopped {
		if mm.QueueLen() == 0 {
			mm.wake.Wait(p)
			continue
		}
		j := mm.queue[mm.qhead]
		mm.queue[mm.qhead] = nil
		mm.qhead++
		mm.gQueue.Set(int64(mm.QueueLen()))

		// The worker runs on the domain's own CPU guarantee.
		d.cpu.Compute(p, d.env.Costs.IDCRoundTrip)

		if j.fault != nil {
			drv := d.DriverFor(j.fault.SID)
			if drv == nil {
				j.ok = false
			} else {
				j.ok = drv.SatisfyFault(p, j.fault, true) == Success
			}
			j.isDone = true
			j.done.Broadcast()
			continue
		}

		// Revocation: cycle through the stretch drivers requesting that
		// they relinquish frames until enough have been freed, then
		// complete the protocol with the frames allocator.
		need := j.k
		for _, drv := range d.driverList() {
			if need <= 0 {
				break
			}
			need -= drv.Relinquish(p, need)
		}
		// Cleaning dirty pages takes time; the Relinquish calls above
		// block as required. Completion hands the frames back.
		d.memc.RevocationComplete()
		mm.putJob(j)
	}
}

// driverList returns the bound drivers in stretch-id order, without
// duplicates. It is a copy: the drivers' Relinquish calls block, and a
// stretch bound meanwhile must not shift the revocation's walk.
func (d *Domain) driverList() []Driver {
	out := make([]Driver, 0, len(d.bindings))
	for _, b := range d.bindings {
		if !slices.Contains(out, b.Driver) {
			out = append(out, b.Driver)
		}
	}
	return out
}
