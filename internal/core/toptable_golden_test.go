package core

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nemesis/internal/domain"
	"nemesis/internal/mem"
	"nemesis/internal/vm"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// startChurn launches a paged domain writing then reading `pages` pages, but
// does not run the simulator — the caller starts all domains first so they
// interleave deterministically.
func startChurn(t *testing.T, sys *System, name string, pages int, done *bool) {
	t.Helper()
	d, err := sys.NewDomain(name, cpuShare(), mem.Contract{Guaranteed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Half the usual disk share so two domains fit under admission.
	dq := diskShare()
	dq.S /= 2
	st, _, err := sys.NewPagedStretch(d, uint64(pages)*vm.PageSize, int64(4*pages)*vm.PageSize, dq)
	if err != nil {
		t.Fatal(err)
	}
	d.Go("main", func(th *domain.Thread) {
		if err := PreallocateFrames(th, 2); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, vm.PageSize)
		for pg := 0; pg < pages; pg++ {
			buf[0] = byte(pg)
			if err := th.WriteAt(st.PageBase(pg), buf); err != nil {
				t.Errorf("%s write page %d: %v", name, pg, err)
				return
			}
		}
		for pg := 0; pg < pages; pg++ {
			if err := th.ReadAt(st.PageBase(pg), buf); err != nil {
				t.Errorf("%s read page %d: %v", name, pg, err)
				return
			}
		}
		*done = true
	})
}

// TestTopTableGolden pins the exact WriteTopTable rendering for a seeded
// two-domain run. Any drift in fault counts, paging traffic, latency
// quantiles, span accounting or the footer format shows up as a diff.
// Regenerate with `go test -run TopTableGolden -update` only when a
// deliberate behavioural or format change is intended.
func TestTopTableGolden(t *testing.T) {
	sys := churnedPair(t)
	var sb strings.Builder
	if err := sys.WriteTopTable(&sb); err != nil {
		t.Fatal(err)
	}
	stopChurned(sys)
	checkGolden(t, filepath.Join("testdata", "toptable.golden"), sb.String())
}

// TestTopJSONGolden pins the machine-readable top dump (-top-json)
// for the same seeded two-domain run as the table golden: rows, histogram
// snapshots and the embedded rollup all drift visibly.
func TestTopJSONGolden(t *testing.T) {
	sys := churnedPair(t)
	var sb strings.Builder
	if err := sys.WriteTopJSON(&sb); err != nil {
		t.Fatal(err)
	}
	stopChurned(sys)
	checkGolden(t, filepath.Join("testdata", "topjson.golden"), sb.String())
}

// TestRegistryExportGolden pins the registry's own exports for the same
// seeded two-domain run: every counter, gauge and histogram row of
// WriteMetricsTSV in creation order, then WriteSpansTSV's per-hop
// summaries in first-seen order. A change to how the registry stores or
// orders its metrics shows up here as a diff.
func TestRegistryExportGolden(t *testing.T) {
	sys := churnedPair(t)
	var sb strings.Builder
	if err := sys.Obs.WriteMetricsTSV(&sb); err != nil {
		t.Fatal(err)
	}
	if err := sys.Obs.WriteSpansTSV(&sb); err != nil {
		t.Fatal(err)
	}
	stopChurned(sys)
	checkGolden(t, filepath.Join("testdata", "registry.golden"), sb.String())
}

// churnedPair runs the goldens' seeded world: a telemetry system on which
// alpha churns 12 pages and beta 8, interleaved, for 60 s.
func churnedPair(t *testing.T) *System {
	t.Helper()
	sys := telemetrySystem()
	var doneA, doneB bool
	startChurn(t, sys, "alpha", 12, &doneA)
	startChurn(t, sys, "beta", 8, &doneB)
	sys.Run(60 * time.Second)
	if !doneA || !doneB {
		t.Fatalf("workloads incomplete: alpha=%v beta=%v", doneA, doneB)
	}
	return sys
}

func stopChurned(sys *System) {
	sys.Shutdown()
	sys.RunUntilIdle(1 << 22)
}

// checkGolden compares got against the golden file, rewriting it under
// -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s:\n%s", path, got)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to generate): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s\n got:\n%s\nwant:\n%s", path, got, string(want))
	}
}
