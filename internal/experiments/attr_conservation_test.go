package experiments

import (
	"context"
	"sync"
	"testing"
	"time"

	"nemesis/internal/core"
)

// TestSuiteAttributionConservation forces telemetry (and with it the
// attribution profiler) onto every system any suite cell builds, and asserts
// the conservation invariant — per-domain accounts sum exactly to elapsed
// sim time — at each system's shutdown, across all 19 suite cells.
// Attribution is purely observational, so forcing it on must not change any
// cell's output either.
func TestSuiteAttributionConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole suite")
	}

	var mu sync.Mutex
	var systems, withDomains int
	var violations []string
	core.ForceTelemetry = true
	core.ShutdownHook = func(sys *core.System) {
		err := sys.CheckAttribution()
		mu.Lock()
		defer mu.Unlock()
		systems++
		if len(sys.Obs.Attr().Domains()) > 0 {
			withDomains++
		}
		if err != nil {
			violations = append(violations, err.Error())
		}
	}
	defer func() {
		core.ForceTelemetry = false
		core.ShutdownHook = nil
	}()

	cells, err := RunSuite(context.Background(), 2*time.Second, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 19 {
		t.Fatalf("suite ran %d cells, want 19", len(cells))
	}
	for _, v := range violations {
		t.Errorf("conservation violated: %s", v)
	}
	// Every cell builds at least one system; most build several.
	if systems < 19 {
		t.Fatalf("shutdown hook saw only %d systems across 19 cells", systems)
	}
	if withDomains < 19 {
		t.Fatalf("only %d audited systems had tracked domains", withDomains)
	}
	t.Logf("conservation held for %d systems (%d with domains)", systems, withDomains)
}
