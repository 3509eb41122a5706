package experiments

import (
	"testing"
	"time"
)

// Experiment tests use shortened measurement windows: the assertions are on
// the *shapes* the paper reports, which emerge well before the full 40 s.

func TestFig7Shape(t *testing.T) {
	opt := DefaultPagingOptions()
	opt.Measure = 15 * time.Second
	r, err := RunPaging(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.MeanMbps) != 3 {
		t.Fatalf("means = %v", r.MeanMbps)
	}
	// The ratio between the three domains must be very close to 4:2:1.
	for i, ratio := range r.Ratios() {
		if ratio < 1.8 || ratio > 2.2 {
			t.Errorf("ratio[%d] = %.2f, want ~2.0 (means %v)", i, ratio, r.MeanMbps)
		}
	}
	// Every application makes real progress (Mbit/s, not noise).
	if r.MeanMbps[0] < 1 {
		t.Errorf("smallest client at %.2f Mbit/s", r.MeanMbps[0])
	}
	// No lax charge exceeds l = 10 ms.
	for client, lax := range r.Log.MaxLax() {
		if lax > 0.010+1e-6 {
			t.Errorf("%s lax span %.4fs exceeds 10ms", client, lax)
		}
	}
	// The scheduler trace contains all three event kinds the paper plots.
	var txns, laxes, allocs int
	for _, e := range r.Log.Events() {
		switch e.Kind {
		case 0:
			txns++
		case 1:
			laxes++
		case 2:
			allocs++
		}
	}
	if txns == 0 || laxes == 0 || allocs == 0 {
		t.Errorf("trace incomplete: txns=%d lax=%d allocs=%d", txns, laxes, allocs)
	}
	// The Atropos guarantee invariant holds across the entire run: no
	// client's charged time exceeds slice + one roll-over transaction in
	// any period-aligned window.
	assertGuarantees(t, r)
}

// assertGuarantees validates the trace of a paging run against every
// client's contract, allowing one maximal transaction of roll-over slop.
func assertGuarantees(t *testing.T, r *PagingResult) {
	t.Helper()
	slices := make(map[string]time.Duration)
	for _, pg := range r.Pagers {
		slices[pg.Drv.Swap().Name()] = pg.Cfg.DiskQoS.S
	}
	var maxTxn time.Duration
	for _, e := range r.Log.Events() {
		if e.Kind == 0 {
			if d := e.End.Sub(e.Start); d > maxTxn {
				maxTxn = d
			}
		}
	}
	violations := r.Log.ValidateGuarantees(slices, r.Opts.Period, maxTxn, r.Sys.Sim.Now())
	for _, v := range violations {
		t.Errorf("guarantee violated: %s busy %.4fs > %.4fs in window at %v", v.Client, v.Busy, v.Allowed, v.Window)
	}
}

func TestFig8Shape(t *testing.T) {
	opt := DefaultPagingOptions()
	opt.Forgetful = true
	opt.Measure = 15 * time.Second
	r, err := RunPaging(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Roughly proportional progress.
	for i, ratio := range r.Ratios() {
		if ratio < 1.5 || ratio > 2.5 {
			t.Errorf("ratio[%d] = %.2f (means %v)", i, ratio, r.MeanMbps)
		}
	}
	// Overall throughput much reduced compared to paging in: the largest
	// client stays below the *smallest* Fig. 7-style client would.
	if r.MeanMbps[2] > 4 {
		t.Errorf("page-out throughput %.2f Mbit/s implausibly high", r.MeanMbps[2])
	}
	// Almost every transaction takes on the order of 10 ms.
	var n int
	var sum float64
	for _, e := range r.Log.Events() {
		if e.Kind == 0 {
			n++
			sum += e.End.Sub(e.Start).Seconds()
		}
	}
	avg := sum / float64(n) * 1e3
	if avg < 6 || avg > 16 {
		t.Errorf("mean write transaction %.2fms, want ~10ms", avg)
	}
	// The forgetful driver never paged in.
	for _, pg := range r.Pagers {
		if pg.Drv.Stats.PageIns != 0 {
			t.Errorf("%s paged in %d times", pg.Cfg.Name, pg.Drv.Stats.PageIns)
		}
	}
	// Roll-over accounting keeps even 10 ms writes within contract.
	assertGuarantees(t, r)
}

func TestFig9Isolation(t *testing.T) {
	opt := DefaultFig9Options()
	opt.Measure = 20 * time.Second
	r, err := RunFig9(opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.AloneMbps < 5 {
		t.Fatalf("FS client alone only %.2f Mbit/s", r.AloneMbps)
	}
	// Throughput remains almost exactly the same despite two heavy pagers.
	if iso := r.Isolation(); iso < 0.97 || iso > 1.03 {
		t.Errorf("isolation = %.3f (alone %.2f, contended %.2f)", iso, r.AloneMbps, r.ContendedMbps)
	}
}

func TestTable1MatchesPaperShape(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Each Nemesis measurement within 25% of the paper's value.
	for _, name := range []string{"dirty", "(un)prot1", "(un)prot100", "trap", "appel1", "appel2"} {
		r, ok := byName[name]
		if !ok {
			t.Fatalf("missing row %q", name)
		}
		if r.PaperNemesisUS > 0 {
			rel := r.NemesisUS / r.PaperNemesisUS
			if rel < 0.75 || rel > 1.25 {
				t.Errorf("%s: nemesis %.2fus vs paper %.2fus", name, r.NemesisUS, r.PaperNemesisUS)
			}
		}
	}
	// Orderings the paper's argument rests on.
	if !(byName["trap"].NemesisUS < byName["trap"].OSF1US) {
		t.Error("Nemesis trap not faster than OSF1")
	}
	if !(byName["appel1"].NemesisUS < byName["appel1"].OSF1US) {
		t.Error("Nemesis appel1 not faster than OSF1")
	}
	if !(byName["appel2"].NemesisUS < byName["appel2"].OSF1US) {
		t.Error("Nemesis appel2 not faster than OSF1")
	}
	// OSF1 wins at bulk page-table protection; the protection-domain
	// variant wins it back.
	p100 := byName["(un)prot100"]
	if !(p100.NemesisUS > p100.OSF1US) {
		t.Error("OSF1 should beat Nemesis page-table prot100")
	}
	if !(p100.AltUS < p100.OSF1US) {
		t.Error("Nemesis PD-variant should beat OSF1 prot100")
	}
	// Rendering works and includes every row.
	if s := FormatTable1(rows); len(s) == 0 {
		t.Error("empty table rendering")
	}
}

func TestAblationLaxityShortBlock(t *testing.T) {
	r, err := AblationLaxity(8 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Without laxity each unpipelined client gets ~1 transaction per
	// period (the EDF-without-laxity prediction in the paper).
	for i, tp := range r.TxnsPerPeriodWithout {
		if tp > 1.6 {
			t.Errorf("client %d: %.2f txns/period without laxity, want ~1", i, tp)
		}
	}
	// With laxity, throughput is far higher.
	for i := range r.WithLaxityMbps {
		if r.WithLaxityMbps[i] < 4*r.WithoutLaxityMbps[i] {
			t.Errorf("client %d: laxity gain only %.2f -> %.2f", i, r.WithoutLaxityMbps[i], r.WithLaxityMbps[i])
		}
	}
}

func TestAblationFCFSDestroysProportions(t *testing.T) {
	r, err := AblationFCFS(8 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Atropos: ~4:2:1. FCFS: roughly equal shares.
	if r.AtroposMbps[2] < 1.5*r.AtroposMbps[0] {
		t.Errorf("atropos lost proportionality: %v", r.AtroposMbps)
	}
	spread := r.FCFSMbps[2] / r.FCFSMbps[0]
	if spread > 1.3 || spread < 0.7 {
		t.Errorf("FCFS should equalise clients, got %v", r.FCFSMbps)
	}
}

func TestAblationCrosstalk(t *testing.T) {
	r, err := AblationCrosstalk(8 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if iso := r.SelfIsolation(); iso < 0.9 || iso > 1.1 {
		t.Errorf("self-paging isolation = %.2f, want ~1", iso)
	}
	if iso := r.ExtIsolation(); iso > 0.7 {
		t.Errorf("external pager isolation = %.2f, want well below 1 (crosstalk)", iso)
	}
}

func TestAblationSlack(t *testing.T) {
	r, err := AblationSlack(8 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r.XTrueMbps < 3*r.XFalseMbps {
		t.Errorf("slack gain too small: x=true %.2f vs x=false %.2f", r.XTrueMbps, r.XFalseMbps)
	}
}

func TestAblationRevocation(t *testing.T) {
	r, err := AblationRevocation()
	if err != nil {
		t.Fatal(err)
	}
	if r.TransparentMs > 0.1 {
		t.Errorf("transparent revocation took %.3fms, want ~0", r.TransparentMs)
	}
	if r.IntrusiveMs < 1 {
		t.Errorf("intrusive revocation took %.3fms, expected milliseconds (disk cleaning)", r.IntrusiveMs)
	}
	if r.IntrusiveMs < 10*r.TransparentMs {
		t.Errorf("intrusive (%.3fms) not clearly slower than transparent (%.3fms)", r.IntrusiveMs, r.TransparentMs)
	}
}

// TestRunPagingDeterminism: the full experiment is replayable bit-for-bit.
func TestRunPagingDeterminism(t *testing.T) {
	run := func() []float64 {
		opt := DefaultPagingOptions()
		opt.VirtBytes = 1 << 20
		opt.Measure = 5 * time.Second
		r, err := RunPaging(opt)
		if err != nil {
			t.Fatal(err)
		}
		return r.MeanMbps
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic: %v vs %v", a, b)
		}
	}
}
