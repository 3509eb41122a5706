package atropos

import (
	"strconv"
	"testing"
	"time"

	"nemesis/internal/sim"
)

func benchCore(b *testing.B, clients int) *Core {
	b.Helper()
	co := NewCore(1.0)
	slice := time.Duration(int64(200*time.Millisecond) / int64(clients))
	for i := 0; i < clients; i++ {
		name := "c" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		if _, err := co.Admit(name, QoS{P: 250 * time.Millisecond, S: slice, L: 10 * time.Millisecond}, 0); err != nil {
			b.Fatal(err)
		}
	}
	return co
}

func BenchmarkPickEDFReady16(b *testing.B) {
	co := benchCore(b, 16)
	for _, c := range co.Clients() {
		co.SetReady(c, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if co.PickEDFReady() == nil {
			b.Fatal("no pick")
		}
	}
}

// BenchmarkTick drives the per-quantum scheduler operation mix — a refresh
// (a no-op except at period boundaries, which grant the whole population), a
// pick over the ready set, and a charge — advancing simulated time 1ms per
// iteration at growing client populations, up to the cluster's 5,000
// domains. The indexed core keeps the common-case tick O(log n), and a
// boundary O(1) per client it grants; the linear reference
// (BenchmarkReferenceTick) pays a full population scan on every refresh
// and every pick, including picks that find nothing.
func BenchmarkTick(b *testing.B) {
	for _, n := range []int{10, 100, 1000, 5000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			co := benchCore(b, n)
			for _, c := range co.Clients() {
				co.SetReady(c, true)
			}
			now := sim.Time(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now = now.Add(time.Millisecond)
				co.Refresh(now)
				if c := co.PickEDFReady(); c != nil {
					co.Charge(c, time.Millisecond)
				}
			}
		})
	}
}

// BenchmarkReferenceTick is the same quantum tick on the retained linear
// core, for side-by-side comparison of the scans the index replaces.
func BenchmarkReferenceTick(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			co := NewReferenceCore(1.0)
			slice := time.Duration(int64(200*time.Millisecond) / int64(n))
			for i := 0; i < n; i++ {
				name := "c" + string(rune('a'+i%26)) + string(rune('0'+i/26))
				if _, err := co.Admit(name, QoS{P: 250 * time.Millisecond, S: slice, L: 10 * time.Millisecond}, 0); err != nil {
					b.Fatal(err)
				}
			}
			ready := func(*ReferenceClient) bool { return true }
			now := sim.Time(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now = now.Add(time.Millisecond)
				co.Refresh(now)
				if c := co.PickEDFWhere(ready); c != nil {
					co.Charge(c, time.Millisecond)
				}
			}
		})
	}
}

func BenchmarkChargeRefresh(b *testing.B) {
	co := benchCore(b, 8)
	c := co.Clients()[0]
	now := sim.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		co.Charge(c, 30*time.Millisecond)
		now = now.Add(250 * time.Millisecond)
		co.Refresh(now)
	}
}

// slackQoS is the contract of every slack-benchmark client: x = true, so
// each one competes for slack, with shares summing to 0.8 at any n.
func slackQoS(n int) QoS {
	return QoS{P: 250 * time.Millisecond, S: time.Duration(int64(200*time.Millisecond) / int64(n)), X: true}
}

// BenchmarkSlackPick prices one round-robin slack pick over n x=true
// clients, 7 of every 8 ready — the call the CPU scheduler makes whenever
// no ready client has guaranteed time left. The pick reads the next set bit
// after the cursor, so its cost should not grow with n.
func BenchmarkSlackPick(b *testing.B) {
	for _, n := range []int{10, 100, 1000, 5000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			co := NewCore(1.0)
			for i := 0; i < n; i++ {
				c, err := co.Admit(strconv.Itoa(i), slackQoS(n), 0)
				if err != nil {
					b.Fatal(err)
				}
				co.SetReady(c, i%8 != 7)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if co.PickSlackReady() == nil {
					b.Fatal("no pick")
				}
			}
		})
	}
}

// BenchmarkReferenceSlackPick is the same pick on the retained linear core,
// with readiness as a predicate: it walks from the cursor to the next ready
// client, one or two steps at this density.
func BenchmarkReferenceSlackPick(b *testing.B) {
	for _, n := range []int{10, 100, 1000, 5000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			co := NewReferenceCore(1.0)
			ready := make(map[*ReferenceClient]bool, n)
			for i := 0; i < n; i++ {
				c, err := co.Admit(strconv.Itoa(i), slackQoS(n), 0)
				if err != nil {
					b.Fatal(err)
				}
				ready[c] = i%8 != 7
			}
			pred := func(c *ReferenceClient) bool { return ready[c] }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if co.PickSlackWhere(pred) == nil {
					b.Fatal("no pick")
				}
			}
		})
	}
}
