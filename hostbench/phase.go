package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// phase is one timed stretch of a workload's closed loop, with the process
// counters read on either side of it.
type phase struct {
	start         time.Time // when the first op was sent
	ops           []op
	before, after snapshot
	profile       []byte // gzipped CPU profile, traced phases only
}

// runPhase drives the workload until d has passed. The heap is collected
// first so every phase starts from the same GC state.
func runPhase(w workload, d time.Duration, traced bool) (*phase, error) {
	runtime.GC()
	p := &phase{}
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("starting the CPU profile: %w", err)
		}
	}
	p.before = takeSnapshot()
	p.start = time.Now()
	p.ops = w.run(p.start.Add(d))
	p.after = takeSnapshot()
	if traced {
		pprof.StopCPUProfile()
		p.profile = prof.Bytes()
	}
	return p, nil
}

// millis returns the latencies of the phase's ops of one class ("" = all)
// in milliseconds.
func (p *phase) millis(class string) []float64 {
	var ms []float64
	for _, o := range p.ops {
		if class == "" || o.class == class {
			ms = append(ms, float64(o.dur)/1e6)
		}
	}
	return ms
}

func (p *phase) failed() int {
	n := 0
	for _, o := range p.ops {
		if !o.ok {
			n++
		}
	}
	return n
}

// cpu is the process's user+system CPU time over the phase.
func (p *phase) cpu() time.Duration { return p.after.cpu - p.before.cpu }

func (p *phase) allocBytes() float64 {
	return float64(p.after.rt[rtAllocs].Value.Uint64() - p.before.rt[rtAllocs].Value.Uint64())
}

// The runtime/metrics samples a snapshot reads, by index.
const (
	rtAllocs = iota
	rtGCCycles
	rtGCCPU
	rtSchedLat
)

var rtNames = []string{
	rtAllocs:   "/gc/heap/allocs:bytes",
	rtGCCycles: "/gc/cycles/total:gc-cycles",
	rtGCCPU:    "/cpu/classes/gc/total:cpu-seconds",
	rtSchedLat: "/sched/latencies:seconds",
}

// schedSamplePeriod is how many goroutine transitions the runtime makes per
// one it records in /sched/latencies:seconds (runtime gTrackingPeriod).
const schedSamplePeriod = 8

// snapshot is the process's resource counters at one instant.
type snapshot struct {
	cpu    time.Duration
	maxRSS float64 // bytes, peak over the process's life
	rt     []metrics.Sample
}

func takeSnapshot() snapshot {
	s := snapshot{rt: make([]metrics.Sample, len(rtNames))}
	for i, n := range rtNames {
		s.rt[i].Name = n
	}
	metrics.Read(s.rt)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.maxRSS = float64(ru.Maxrss) * 1024 // Linux reports KiB
	}
	return s
}

// schedDelta is the /sched/latencies:seconds histogram accumulated over
// the phase.
func (p *phase) schedDelta() (buckets []float64, counts []uint64) {
	a := p.before.rt[rtSchedLat].Value.Float64Histogram()
	b := p.after.rt[rtSchedLat].Value.Float64Histogram()
	counts = make([]uint64, len(b.Counts))
	for i := range counts {
		counts[i] = b.Counts[i] - a.Counts[i]
	}
	return b.Buckets, counts
}

// perLayer reports the per-layer metrics of a traced phase. base is the
// untraced phase run just before it, the reference for the overhead.
func perLayer(w workload, base, traced *phase, put func(name, unit string, v float64)) error {
	units := map[string]string{}
	for _, m := range layerMetrics {
		units[m.name] = m.unit
		put(m.name, m.unit, 0)
	}
	set := func(name string, v float64) {
		u, ok := units[name]
		if !ok {
			panic("hostbench: unlisted per-layer metric " + name)
		}
		put(name, u, v)
	}

	n := float64(len(traced.ops))
	prof, err := parseProfile(traced.profile)
	if err != nil {
		return fmt.Errorf("reading the CPU profile: %w", err)
	}
	var total int64
	for layer, ns := range prof.fold() {
		set(layer+".self_ms", float64(ns)/1e6/n)
		total += ns
	}
	cpu := traced.cpu()
	set("traced.cpu_ms_per_op", cpu.Seconds()*1e3/n)
	set("traced.layer_sum_pct", 100*float64(total)/float64(cpu))
	b50, t50 := quantile(base.millis(""), 0.5), quantile(traced.millis(""), 0.5)
	set("traced.overhead_pct", 100*(t50-b50)/b50)

	buckets, counts := traced.schedDelta()
	var switches uint64
	for _, c := range counts {
		switches += c
	}
	set("handoff.switches", float64(switches*schedSamplePeriod)/n)
	set("handoff.wait_us_p50", histQuantile(buckets, counts, 0.5)*1e6)
	a, b := traced.before.rt, traced.after.rt
	set("gc.cycles", float64(b[rtGCCycles].Value.Uint64()-a[rtGCCycles].Value.Uint64())/n)
	set("gc.cpu_ms", (b[rtGCCPU].Value.Float64()-a[rtGCCPU].Value.Float64())*1e3/n)
	w.layers(traced.ops, set)
	return nil
}

// layerMetrics lists every per-layer metric a traced run reports, with its
// unit. A metric a workload does not exercise reads 0.
var layerMetrics = func() []struct{ name, unit string } {
	var ms []struct{ name, unit string }
	add := func(name, unit string) { ms = append(ms, struct{ name, unit string }{name, unit}) }
	for _, l := range layers {
		add(l+".self_ms", "ms")
	}
	add("handoff.switches", "count")
	add("handoff.wait_us_p50", "us")
	add("gc.cycles", "count")
	add("gc.cpu_ms", "ms")
	add("sim.events", "count")
	add("sim.ns_per_event", "ns")
	add("netswap.rpcs", "count")
	add("netswap.retry_pct", "%")
	add("serve.hit_ms_p50", "ms")
	add("serve.cache_hit_pct", "%")
	add("serve.warm_fig7_ms_p50", "ms")
	add("serve.warm_fig8_ms_p50", "ms")
	add("serve.warm_hit_pct", "%")
	add("serve.cold_fig7_ms", "ms")
	add("serve.cold_fig8_ms", "ms")
	add("traced.cpu_ms_per_op", "ms")
	add("traced.layer_sum_pct", "%")
	add("traced.overhead_pct", "%")
	return ms
}()
