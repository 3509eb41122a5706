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

// TestNormalizeCanonicalizesNegativeZeroLoss: a loss of -0 is the loss 0,
// so it must encode to the same bytes, not a cache key of its own.
func TestNormalizeCanonicalizesNegativeZeroLoss(t *testing.T) {
	var bodies [][]byte
	for _, raw := range []string{`{"kind":"netswap","losses":[-0]}`, `{"kind":"netswap","losses":[0]}`} {
		var s Spec
		if err := json.Unmarshal([]byte(raw), &s); err != nil {
			t.Fatal(err)
		}
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(s)
		bodies = append(bodies, b)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("-0 and 0 losses normalize differently:\n%s\n%s", bodies[0], bodies[1])
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
		if err := s.Normalize(); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("spec %+v: Normalize = %v, want an ErrInvalidSpec", s, err)
		}
	}
}

// durations returns n distinct positive latencies.
func durations(n int) []Duration {
	out := make([]Duration, n)
	for i := range out {
		out[i] = Duration(time.Duration(i+1) * time.Millisecond)
	}
	return out
}

// losses returns n distinct loss rates in [0, 1).
func losses(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) / 100
	}
	return out
}

// TestNormalizeServiceBounds pins the bounds on the spec fields that size
// host work: a cluster's server count and each netswap axis are accepted at
// their maximum and rejected one past it, with an ErrInvalidSpec.
func TestNormalizeServiceBounds(t *testing.T) {
	for _, c := range []struct {
		name    string
		spec    Spec
		invalid bool
	}{
		{"64 servers", Spec{Kind: KindCluster, Servers: 64}, false},
		{"65 servers", Spec{Kind: KindCluster, Servers: 65}, true},
		{"64 machines", Spec{Kind: KindCluster, Machines: 64}, false},
		{"65 machines", Spec{Kind: KindCluster, Machines: 65}, true},
		{"20000 domains", Spec{Kind: KindCluster, DomainsPerMachine: 20000}, false},
		{"20001 domains", Spec{Kind: KindCluster, DomainsPerMachine: 20001}, true},
		{"16 latencies", Spec{Kind: KindNetswap, Latencies: durations(16)}, false},
		{"17 latencies", Spec{Kind: KindNetswap, Latencies: durations(17)}, true},
		{"16 losses", Spec{Kind: KindNetswap, Losses: losses(16)}, false},
		{"17 losses", Spec{Kind: KindNetswap, Losses: losses(17)}, true},
		{"16 × 16", Spec{Kind: KindNetswap, Latencies: durations(16), Losses: losses(16)}, false},
		{"10m measure", Spec{Kind: KindSuite, Measure: Duration(maxMeasure)}, false},
		{"10m+1ns measure", Spec{Kind: KindSuite, Measure: Duration(maxMeasure + 1)}, true},
	} {
		err := c.spec.Normalize()
		if c.invalid != errors.Is(err, ErrInvalidSpec) || (!c.invalid && err != nil) {
			t.Errorf("%s: Normalize = %v, want invalid %v", c.name, err, c.invalid)
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
