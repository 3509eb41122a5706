package obs

import (
	"fmt"
	"testing"
	"time"
)

// faultPathObsCalls replicates the exact telemetry call sequence the fault
// fast path makes, against a possibly-nil registry and cached handles.
func faultPathObsCalls(r *Registry, faults, fast *Counter, lat *Histogram) {
	sp := r.StartSpan("d1", "page")
	sp.BeginHop("dispatch")
	faults.Inc()
	sp.BeginHop("driver")
	sp.BeginHop("map")
	fast.Inc()
	lat.Observe(3 * time.Microsecond)
	sp.Finish("fast")
}

// TestDisabledFaultPathZeroAllocs is the acceptance criterion: with
// telemetry disabled (nil registry and nil cached handles) the fault fast
// path's instrumentation performs zero allocations.
func TestDisabledFaultPathZeroAllocs(t *testing.T) {
	var r *Registry
	allocs := testing.AllocsPerRun(1000, func() {
		faultPathObsCalls(r, nil, nil, nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry allocated %.1f allocs/op on the fault path", allocs)
	}
}

func BenchmarkFaultPathTelemetryDisabled(b *testing.B) {
	var r *Registry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		faultPathObsCalls(r, nil, nil, nil)
	}
}

func BenchmarkFaultPathTelemetryEnabled(b *testing.B) {
	fc := &fakeClock{}
	r := NewRegistry(fc.now)
	faults := r.Counter("domain", "faults", "d1")
	fast := r.Counter("domain", "faults_fast", "d1")
	lat := r.Histogram("domain", "fault_latency", "d1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fc.advance(time.Microsecond)
		faultPathObsCalls(r, faults, fast, lat)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	fc := &fakeClock{}
	r := NewRegistry(fc.now)
	h := r.Histogram("usd", "service", "d1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i%1000) * time.Microsecond)
	}
}

// clusterDomainMetrics is the metric set one cluster domain registers as it
// is built, in order: the domain and its MMEntry, its frames client (first
// under the allocator's "dom<id>" label, then under the domain's name), its
// remote backing and its stretch driver. An empty label means the domain's
// name.
var clusterDomainMetrics = []struct {
	kind      byte // 'c' counter, 'g' gauge, 'h' histogram
	sub, name string
	label     string
}{
	{'c', "domain", "faults", ""}, {'c', "domain", "faults_fast", ""},
	{'c', "domain", "faults_worker", ""}, {'c', "domain", "revocations", ""},
	{'g', "domain", "mm_queue", ""},
	{'g', "frames", "held", "dom"}, {'g', "frames", "stack_depth", "dom"}, {'h', "frames", "alloc_wait", "dom"},
	{'g', "frames", "held", ""}, {'g', "frames", "stack_depth", ""}, {'h', "frames", "alloc_wait", ""},
	{'c', "netswap", "rpcs", ""}, {'c', "netswap", "retries", ""}, {'c', "netswap", "timeouts", ""},
	{'c', "netswap", "late_replies", ""}, {'g', "netswap", "inflight", ""}, {'h', "netswap", "rtt", ""},
	{'c', "driver", "pageins", ""}, {'c', "driver", "pageouts", ""}, {'c', "driver", "evictions", ""},
	{'c', "pager", "evictions_fifo", ""}, {'c', "pager", "victims_clean", ""}, {'c', "pager", "victims_dirty", ""},
	{'c', "pager", "cleaned_pages", ""}, {'c', "pager", "clean_batches", ""}, {'c', "pager", "spares_fifo", ""},
}

// BenchmarkRegistryDomains registers one cluster domain's metric set for
// each of 5,000 domains on a fresh registry: the registry's share of
// building the cluster-5k machine.
func BenchmarkRegistryDomains(b *testing.B) {
	const domains = 5000
	names := make([]string, domains)
	ids := make([]string, domains)
	for i := range names {
		names[i] = fmt.Sprintf("d%d", i)
		ids[i] = fmt.Sprintf("dom%d", i+1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewRegistry(nil)
		for d, name := range names {
			for _, m := range clusterDomainMetrics {
				label := name
				if m.label != "" {
					label = ids[d]
				}
				switch m.kind {
				case 'c':
					r.Counter(m.sub, m.name, label)
				case 'g':
					r.Gauge(m.sub, m.name, label)
				case 'h':
					r.Histogram(m.sub, m.name, label)
				}
			}
		}
	}
}
