package obs

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"nemesis/internal/sim"
)

// The crosstalk monitor must produce exactly the same flags, gauges and
// counters whether its source reports every domain each window or only the
// domains that changed. This test builds one scripted world of per-window
// activity — steady domains, an attacker, collapsing victims, a domain that
// surges from a long-idle baseline (the history-padding path), a domain
// that fades out (the cooling path) and permanently idle domains — and
// drives one monitor with an every-domain source and one with a
// changed-only source over separate simulators, comparing every observable.

const ctWindows = 60

// ctDelta returns domain name's activity during window t (1-based).
func ctDelta(name string, t int) (progress, faults, revocations int64) {
	switch name {
	case "steady":
		return 1000, 10, 0
	case "attacker":
		if t == 12 || t == 15 || t == 20 {
			return 500, 300, 0
		}
		return 500, 20, 0
	case "victim":
		if t == 15 || t == 20 {
			return 50, 10, 0
		}
		return 1000, 10, 0
	case "sleeper": // idle until a fault surge from a zero baseline
		if t == 20 || t == 21 {
			return 0, 80, 0
		}
		return 0, 0, 0
	case "fader": // active early, then silent: must cool to zero baseline
		if t <= 10 {
			return 2000, 15, 0
		}
		return 0, 0, 0
	case "revoker": // bursts of revocations with long idle gaps between
		if t == 5 || t == 25 {
			return 100, 5, 3
		}
		return 0, 0, 0
	default: // idle0..idle3: never any activity
		return 0, 0, 0
	}
}

var ctNames = []string{"steady", "attacker", "victim", "sleeper", "fader", "revoker", "idle0", "idle1", "idle2", "idle3"}

// ctWorld precomputes cumulative samples per tick.
func ctWorld() [][]DomainSample {
	world := make([][]DomainSample, ctWindows+1)
	cum := make([]DomainSample, len(ctNames))
	for i, n := range ctNames {
		cum[i] = DomainSample{Name: n, Order: int64(i)}
	}
	world[0] = append([]DomainSample(nil), cum...)
	for t := 1; t <= ctWindows; t++ {
		for i, n := range ctNames {
			p, f, r := ctDelta(n, t)
			cum[i].Progress += p
			cum[i].Faults += f
			cum[i].Revocations += r
		}
		world[t] = append([]DomainSample(nil), cum...)
	}
	return world
}

func TestIncrementalCrosstalkMatchesFullScan(t *testing.T) {
	world := ctWorld()
	cfg := CrosstalkConfig{Period: time.Second, Baseline: 4}
	runDur := time.Duration(ctWindows)*time.Second - 300*time.Millisecond // end on a partial window to cover flush

	// Full scan: every domain, every window, each with its Order set.
	fullSim := sim.New(1)
	fullReg := NewRegistry(fullSim.Now)
	fullTick := 0
	full := NewCrosstalkMonitor(fullReg, fullSim, cfg, func() ([]DomainSample, Pressure) {
		fullTick++
		return world[fullTick], Pressure{FreeFrames: 100 - fullTick}
	})
	full.Start()
	fullSim.RunFor(runDur)
	full.Stop()

	// Incremental: first window reports everyone (fresh), then only domains
	// whose cumulative counters moved.
	incSim := sim.New(1)
	incReg := NewRegistry(incSim.Now)
	incTick := 0
	inc := NewCrosstalkMonitor(incReg, incSim, cfg, func() ([]DomainSample, Pressure) {
		incTick++
		var changed []DomainSample
		for i, s := range world[incTick] {
			if incTick == 1 || s != world[incTick-1][i] {
				changed = append(changed, s)
			}
		}
		return changed, Pressure{FreeFrames: 100 - incTick}
	})
	inc.Start()
	incSim.RunFor(runDur)
	inc.Stop()

	if full.Ticks() != inc.Ticks() {
		t.Fatalf("ticks: full %d, incremental %d", full.Ticks(), inc.Ticks())
	}
	ff, fi := fullReg.Flags(), incReg.Flags()
	if !reflect.DeepEqual(ff, fi) {
		t.Fatalf("flags diverged:\n full: %+v\n incr: %+v", ff, fi)
	}
	if len(ff) == 0 {
		t.Fatal("script raised no flags; the comparison is vacuous")
	}
	// Both the steady-attack windows and a cooling-window collapse must be
	// represented, or the interesting paths were never exercised.
	victims := map[string]bool{}
	for _, f := range ff {
		victims[f.Victim] = true
	}
	if !victims["victim"] {
		t.Fatalf("no flag for the scripted victim: %+v", ff)
	}
	// The t=12 surge catches the fader while it is cooling (zero rate
	// against a still-positive baseline): the flag must come from the
	// synthesized cooling window, not a reported sample.
	if !victims["fader"] {
		t.Fatalf("no cooling-window flag for the fader: %+v", ff)
	}

	// Gauges and counters must agree for every domain that was ever active
	// (a changed-only source never creates gauges for never-active ones).
	for _, name := range ctNames {
		for _, metric := range []string{"progress_rate", "fault_rate"} {
			fg := fullReg.LookupGauge("crosstalk", metric, name)
			ig := incReg.LookupGauge("crosstalk", metric, name)
			if ig == nil {
				last := world[ctWindows][0]
				for _, s := range world[ctWindows] {
					if s.Name == name {
						last = s
					}
				}
				if last.Progress != 0 || last.Faults != 0 {
					t.Fatalf("%s/%s: incremental gauge missing for active domain", metric, name)
				}
				continue
			}
			if fg.Value() != ig.Value() {
				t.Fatalf("%s/%s: full %d, incremental %d", metric, name, fg.Value(), ig.Value())
			}
		}
		fc := fullReg.LookupCounter("crosstalk", "revocations_seen", name)
		ic := incReg.LookupCounter("crosstalk", "revocations_seen", name)
		if (fc == nil) != (ic == nil) || (fc != nil && fc.Value() != ic.Value()) {
			t.Fatalf("revocations_seen/%s: full %v, incremental %v", name, fc, ic)
		}
	}
}

// TestCrosstalkSteadyWindowsAllocateNothing: once every domain of a fixed
// active set has its history, gauges and baseline windows, a window
// allocates nothing. Half the domains report every window; the other half
// report every other window, so they are merged in from the cooling set in
// between. The source reuses its slice, as core's does.
func TestCrosstalkSteadyWindowsAllocateNothing(t *testing.T) {
	const n = 64
	s := sim.New(1)
	reg := NewRegistry(s.Now)
	cum := make([]DomainSample, n)
	for i := range cum {
		cum[i] = DomainSample{Name: fmt.Sprintf("d%d", i), Order: int64(i)}
	}
	var out []DomainSample
	tick := 0
	m := NewCrosstalkMonitor(reg, s, CrosstalkConfig{Period: time.Second, Baseline: 4}, func() ([]DomainSample, Pressure) {
		tick++
		out = out[:0]
		for i := range cum {
			switch {
			case i%2 == 0:
				// Steady faults never surge, so no flag is raised.
				cum[i].Progress += 1000
				cum[i].Faults += 10
			case tick%2 == 0:
				cum[i].Progress += 500
			default:
				continue
			}
			out = append(out, cum[i])
		}
		return out, Pressure{FreeFrames: 100}
	})
	for range 8 {
		m.sampleWindow(1)
	}
	if len(m.cooling) != n {
		t.Fatalf("%d of %d domains cooling; the merge path is not exercised", len(m.cooling), n)
	}
	if allocs := testing.AllocsPerRun(20, func() { m.sampleWindow(1) }); allocs != 0 {
		t.Fatalf("a steady window allocated %.1f times", allocs)
	}
	if len(reg.Flags()) != 0 {
		t.Fatalf("steady windows raised flags: %+v", reg.Flags())
	}
}

// A baseline window keeps exactly the last n rates, oldest first, in the
// capacity it got on first use.
func TestSlideKeepsLastRates(t *testing.T) {
	var w []float64
	for i := 1; i <= 7; i++ {
		w = slide(w, float64(i), 4)
		if want := min(i, 4); len(w) != want || cap(w) != 4 {
			t.Fatalf("after %d rates: len %d cap %d, want len %d cap 4", i, len(w), cap(w), want)
		}
	}
	if want := []float64{4, 5, 6, 7}; !reflect.DeepEqual(w, want) {
		t.Fatalf("window %v, want %v", w, want)
	}
}
