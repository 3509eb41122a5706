package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"
	"time"

	"nemesis/internal/core"
	"nemesis/internal/sim"
)

func TestDurationUnmarshalFormats(t *testing.T) {
	// One second, spelled three ways, must decode identically — that is
	// what makes duration spelling irrelevant to a spec's content hash.
	for _, raw := range []string{`"1s"`, `"1000ms"`, `1000000000`} {
		var d Duration
		if err := json.Unmarshal([]byte(raw), &d); err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		if d.D() != time.Second {
			t.Errorf("%s decoded to %v, want 1s", raw, d.D())
		}
	}
	b, err := json.Marshal(Duration(90 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"1m30s"` {
		t.Errorf("marshal = %s, want \"1m30s\" (canonical duration string)", b)
	}
	var d Duration
	if err := json.Unmarshal([]byte(`true`), &d); err == nil {
		t.Error("bool unmarshalled into a Duration without error")
	}
}

func TestNormalizeMakesDefaultsExplicit(t *testing.T) {
	implicit := Spec{Kind: KindFigure, Figure: 7}
	explicit := Spec{Kind: KindFigure, Figure: 7, Measure: Duration(40 * time.Second), Seed: 1}
	for _, s := range []*Spec{&implicit, &explicit} {
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
	}
	bi, _ := json.Marshal(implicit)
	be, _ := json.Marshal(explicit)
	if !bytes.Equal(bi, be) {
		t.Errorf("default-vs-explicit specs normalize differently:\n%s\n%s", bi, be)
	}

	cluster := Spec{Kind: KindCluster}
	if err := cluster.Normalize(); err != nil {
		t.Fatal(err)
	}
	d := DefaultClusterOptions()
	if cluster.Machines != d.Machines || cluster.DomainsPerMachine != d.DomainsPerMachine ||
		cluster.Servers != d.Servers || cluster.Measure.D() != d.Measure || cluster.Seed != d.Seed {
		t.Errorf("cluster normalize = %+v, want defaults %+v", cluster, d)
	}
}

func TestNormalizeClearsIrrelevantFields(t *testing.T) {
	// A suite spec carrying cluster/figure noise must canonicalize to the
	// same bytes as a clean one: the noise cannot fragment the cache.
	noisy := Spec{Kind: KindSuite, Figure: 8, Seed: 42, Machines: 9, Hog: true, Losses: []float64{0.5}}
	clean := Spec{Kind: KindSuite}
	for _, s := range []*Spec{&noisy, &clean} {
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
	}
	bn, _ := json.Marshal(noisy)
	bc, _ := json.Marshal(clean)
	if !bytes.Equal(bn, bc) {
		t.Errorf("irrelevant fields survived normalization:\n%s\n%s", bn, bc)
	}
}

func TestNormalizeRejectsInvalidSpecs(t *testing.T) {
	bad := []Spec{
		{},
		{Kind: "warp"},
		{Kind: KindFigure, Figure: 5},
		{Kind: KindAttribution, Figure: 9},
		{Kind: KindNetswap, Losses: []float64{1.5}},
		{Kind: KindNetswap, Latencies: []Duration{Duration(-time.Second)}},
		{Kind: KindSuite, Measure: Duration(time.Hour)},
		{Kind: KindCluster, Machines: 1000},
	}
	for _, s := range bad {
		if err := s.Normalize(); err == nil {
			t.Errorf("spec %+v normalized without error", s)
		}
	}
}

func TestRunSpecNetswapDeterministicAcrossWorkers(t *testing.T) {
	spec := Spec{
		Kind:      KindNetswap,
		Latencies: []Duration{Duration(200 * time.Microsecond), Duration(time.Millisecond)},
		Losses:    []float64{0, 0.05},
		Measure:   Duration(100 * time.Millisecond),
	}
	var bodies [][]byte
	for _, workers := range []int{1, 4} {
		out, err := RunSpec(context.Background(), spec, workers)
		if err != nil {
			t.Fatal(err)
		}
		if out.Result.Netswap == nil || len(out.Result.Netswap.Cells) != 4 {
			t.Fatalf("workers=%d: netswap result missing or wrong size: %+v", workers, out.Result.Netswap)
		}
		body, err := EncodeResult(out.Result)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("result bytes differ across worker counts:\n%s\n%s", bodies[0], bodies[1])
	}
}

func TestRunSpecFigureTraceArtifacts(t *testing.T) {
	spec := Spec{Kind: KindFigure, Figure: 8, Measure: Duration(2 * time.Second), Trace: true}
	out, err := RunSpec(context.Background(), spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Figure == nil || len(out.Result.Figure.MeanMbps) == 0 {
		t.Fatalf("figure summary missing: %+v", out.Result.Figure)
	}
	if len(out.Trace) == 0 {
		t.Error("trace artifact empty despite Trace: true")
	}
	if len(out.Audit) == 0 {
		t.Error("audit artifact empty despite Trace: true")
	}
	var events []any
	if err := json.Unmarshal(out.Audit, &events); err != nil {
		t.Errorf("audit artifact is not a JSON array: %v", err)
	}
	// The traced figs 7/8 run includes the deterministic revocation
	// episode, so the audit log cannot be empty.
	if len(events) == 0 {
		t.Error("audit artifact has no events; expected the revocation episode")
	}
}

func TestRunSpecCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunSpec(ctx, Spec{Kind: KindSuite}, 2); err == nil {
		t.Error("pre-cancelled RunSpec returned no error")
	}
}

// TestRunSpecProcPanicIsError plants a panicking process in every world a
// spec builds: RunSpec reports it as an error wrapping sim.ErrProcPanic, on
// a single-cell kind and on a sweep of cells, and leaks no goroutine.
func TestRunSpecProcPanicIsError(t *testing.T) {
	before := runtime.NumGoroutine()
	core.NewHook = func(sys *core.System) {
		sys.Sim.Spawn("faulty", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			panic("planted fault")
		})
	}
	defer func() { core.NewHook = nil }()
	for _, spec := range []Spec{
		{Kind: KindFigure, Figure: 8, Measure: Duration(time.Second)},
		{Kind: KindCluster, Machines: 3, DomainsPerMachine: 2, Servers: 1, Measure: Duration(50 * time.Millisecond)},
	} {
		if _, err := RunSpec(context.Background(), spec, 2); !errors.Is(err, sim.ErrProcPanic) {
			t.Errorf("%s: err = %v, want a sim.ErrProcPanic", spec.Kind, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines = %d, baseline %d: a failed world leaked", n, before)
	}
}
