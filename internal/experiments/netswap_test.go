package experiments

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// e8Latencies and e8Losses are the CI-sized E8 grid: three link latencies by
// two loss settings, short enough to keep the suite fast.
var (
	e8Latencies = []time.Duration{200 * time.Microsecond, time.Millisecond, 2 * time.Millisecond}
	e8Losses    = []float64{0, 0.05}
)

func TestNetswapSweep(t *testing.T) {
	res, err := RunNetswapSweep(context.Background(), e8Latencies, e8Losses, 5*time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(e8Latencies)*len(e8Losses) {
		t.Fatalf("got %d cells, want %d", len(res.Cells), len(e8Latencies)*len(e8Losses))
	}
	for _, c := range res.Cells {
		if c.Mbps <= 0 {
			t.Errorf("cell %v/%.2f made no progress", c.Latency, c.Loss)
		}
		if c.RPCs == 0 {
			t.Errorf("cell %v/%.2f recorded no RPCs", c.Latency, c.Loss)
		}
		// The per-hop breakdown must be populated: every fault crosses the
		// wire out, the remote store and the wire back.
		if c.NetOutP50Ms <= 0 || c.StoreP50Ms <= 0 || c.NetBackP50Ms <= 0 {
			t.Errorf("cell %v/%.2f missing hop breakdown: %+v", c.Latency, c.Loss, c)
		}
		if c.Loss > 0 && c.Retries == 0 {
			t.Errorf("lossy cell %v/%.2f recorded no retries", c.Latency, c.Loss)
		}
		if c.Loss == 0 && c.Timeouts != 0 {
			t.Errorf("clean cell %v recorded %d timeouts", c.Latency, c.Timeouts)
		}
	}
	// More link latency must show up in the network hops, not the store hop.
	first, last := res.Cells[0], res.Cells[len(e8Latencies)-1]
	if last.NetOutP50Ms <= first.NetOutP50Ms {
		t.Errorf("net.out p50 did not grow with link latency: %.3f -> %.3f",
			first.NetOutP50Ms, last.NetOutP50Ms)
	}
}

func TestNetswapSweepDeterministic(t *testing.T) {
	a, err := RunNetswapSweep(context.Background(), e8Latencies, e8Losses, 2*time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunNetswapSweep(context.Background(), e8Latencies, e8Losses, 2*time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical sweeps diverged:\n%+v\n%+v", a, b)
	}
}

func TestNetswapOutageIsolation(t *testing.T) {
	res, err := RunNetswapOutage(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.MonitorTicks == 0 {
		t.Fatal("crosstalk monitor never sampled")
	}
	if len(res.Flags) != 0 {
		t.Fatalf("outage leaked across the QoS firewall: %+v", res.Flags)
	}
	// "Zero crosstalk" as a structured audit assertion: the audit log must
	// contain no qos.crosstalk events either (the monitor mirrors every flag
	// there, including any raised by the trailing partial window on Stop).
	if len(res.Crosstalk) != 0 {
		t.Fatalf("qos.crosstalk audit events recorded: %+v", res.Crosstalk)
	}
	// The remote domain alone stalls during the outage and recovers after.
	if res.RemoteMbps[0] <= 0 || res.RemoteMbps[2] <= 0 {
		t.Fatalf("remote domain made no progress outside the outage: %+v", res.RemoteMbps)
	}
	if res.RemoteMbps[1] > res.RemoteMbps[0]/10 {
		t.Fatalf("remote domain barely stalled during its outage: %+v", res.RemoteMbps)
	}
	// The local domain must not be dragged down by the neighbour's outage.
	if res.LocalMbps[1] < res.LocalMbps[0]*0.8 {
		t.Fatalf("local domain degraded during the remote outage: %+v", res.LocalMbps)
	}
}

func TestNetswapDegrade(t *testing.T) {
	res, err := RunNetswapDegrade(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DegradedDuringOutage {
		t.Fatal("outage did not trip degradation")
	}
	if res.Stats.DegradedEntries == 0 || res.Stats.LocalFallbacks == 0 {
		t.Fatalf("no fallover recorded: %+v", res.Stats)
	}
	if res.Stats.Demotions == 0 {
		t.Fatalf("healthy phases never demoted to the remote tier: %+v", res.Stats)
	}
	// QoS-preserving: the outage phase keeps paging at local-tier speed.
	if res.Mbps[1] < res.Mbps[0]*0.5 {
		t.Fatalf("throughput collapsed during the outage: %+v", res.Mbps)
	}
	if res.Mbps[2] <= 0 {
		t.Fatalf("no recovery after the outage: %+v", res.Mbps)
	}
}
