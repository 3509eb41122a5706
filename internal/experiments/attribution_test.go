package experiments

import (
	"context"
	"fmt"
	"testing"
	"time"

	"nemesis/internal/experiments/sweep"
	"nemesis/internal/obs"
	"nemesis/internal/sim"
)

func attrOpts(hog bool) AttributionOptions {
	return AttributionOptions{Fig: 8, Hog: hog, Measure: 8 * time.Second, Seed: 1}
}

// hopShare returns the fraction of a profile's lifetime spent blocked under
// one fault hop.
func hopShare(p obs.DomainProfile, hop string) float64 {
	var sum time.Duration
	for _, acc := range p.Accounts {
		if acc.State == obs.AttrFault && acc.Hop == hop {
			sum += acc.Total
		}
	}
	if p.Elapsed() <= 0 {
		return 0
	}
	return float64(sum) / float64(p.Elapsed())
}

// TestAttributionHogIsolation is the paper's QoS-isolation claim as a
// checked property of the attribution profile: adding an unconscionable hog
// leaves the contracted applications' time breakdowns flat, and the
// contention the hog creates lands in the hog's own usd.queue account.
func TestAttributionHogIsolation(t *testing.T) {
	base, err := RunAttribution(attrOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	hogged, err := RunAttribution(attrOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Profiles) != 3 || len(hogged.Profiles) != 4 {
		t.Fatalf("profiles: %d and %d, want 3 and 4", len(base.Profiles), len(hogged.Profiles))
	}

	// Victims' breakdowns stay flat: every coarse state share moves by
	// less than 2 points of lifetime share when the hog appears.
	for _, p0 := range base.Profiles {
		p1, ok := hogged.ProfileFor(p0.Domain)
		if !ok {
			t.Fatalf("domain %q missing from hogged run", p0.Domain)
		}
		for _, st := range obs.AttrStates {
			d := p1.Share(st) - p0.Share(st)
			if d < -0.02 || d > 0.02 {
				t.Errorf("%s: share(%s) moved %+.4f (%.4f -> %.4f) when the hog appeared",
					p0.Domain, st, d, p0.Share(st), p1.Share(st))
			}
		}
	}

	// The hog pays for its own appetite: it is fault-blocked essentially
	// always, overwhelmingly waiting on its own exhausted disk slice.
	hog, ok := hogged.ProfileFor("hog-5%")
	if !ok {
		t.Fatal("hog profile missing")
	}
	if s := hog.Share(obs.AttrFault); s < 0.95 {
		t.Errorf("hog fault share = %.4f, want > 0.95", s)
	}
	if s := hopShare(hog, "usd.queue"); s < 0.8 {
		t.Errorf("hog usd.queue share = %.4f, want > 0.8 (contention must land in the hog's account)", s)
	}

	// And the starved contract buys it less bandwidth than the 10% app.
	mb := hogged.Paging.MeanMbps
	if len(mb) != 4 || mb[3] >= mb[0] {
		t.Errorf("hog bandwidth %v should trail app1", mb)
	}
}

// TestAttributionCoversMeasuredWindow: the accounts restart at the measure
// instant, so every profile spans exactly the measured window — not the
// initialisation before it — and its accounts conserve that span.
func TestAttributionCoversMeasuredWindow(t *testing.T) {
	for _, hog := range []bool{false, true} {
		opt := attrOpts(hog)
		r, err := RunAttribution(opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range r.Profiles {
			if p.Elapsed() != opt.Measure || p.Start != sim.Time(r.Paging.MeasureStart) {
				t.Errorf("hog=%v %s: profile spans [%v, %v], want the %v window from %v",
					hog, p.Domain, p.Start, p.End, opt.Measure, r.Paging.MeasureStart)
			}
			var sum time.Duration
			for _, acc := range p.Accounts {
				sum += acc.Total
			}
			if sum != p.Elapsed() {
				t.Errorf("hog=%v %s: accounts sum to %v over a %v window", hog, p.Domain, sum, p.Elapsed())
			}
		}
		if err := r.Paging.Sys.CheckAttribution(); err != nil {
			t.Errorf("hog=%v: %v", hog, err)
		}
	}
}

// TestAttributionFoldedIdenticalAcrossWorkers pins the acceptance property
// that the folded-stack export is byte-identical at any sweep worker count.
func TestAttributionFoldedIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) []string {
		cells, err := sweep.Map(context.Background(), workers, []bool{false, true}, func(_ context.Context, hog bool) (string, error) {
			r, err := RunAttribution(attrOpts(hog))
			if err != nil {
				return "", err
			}
			return r.Folded, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}
	serial := run(1)
	parallel := run(4)
	for i := range serial {
		if serial[i] == "" {
			t.Fatalf("cell %d: empty folded export", i)
		}
		if serial[i] != parallel[i] {
			t.Fatalf("cell %d: folded export differs between 1 and 4 workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
				i, serial[i], parallel[i])
		}
	}
	// Every folded line is "frames count_us" with an integer count.
	var frames string
	var us int64
	if n, err := fmt.Sscanf(serial[0], "%s %d", &frames, &us); n != 2 || err != nil {
		t.Fatalf("folded first line unparseable: %q", serial[0])
	}
}
