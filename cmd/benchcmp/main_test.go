package main

import (
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
BenchmarkFig7Paging-8   	       1	 123456789 ns/op	       42.5 sim_us_p50	     9000 sim_us_p99	  2048 B/op	      17 allocs/op
BenchmarkFig8Attribution 	       1	  99999 ns/op	  1500000 sim_attr_us_fault	       0 sim_attr_us_idle
BenchmarkEventDispatch-8 	  200000	  19.5 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	nemesis	1.234s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	// BenchmarkEventDispatch reports host speed only, so it is left out.
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
	fig7 := got["BenchmarkFig7Paging"]
	if len(fig7) != 2 || fig7["sim_us_p50"] != 42.5 || fig7["sim_us_p99"] != 9000 {
		t.Fatalf("fig7 metrics wrong (host units must be dropped): %v", fig7)
	}
	attr := got["BenchmarkFig8Attribution"]
	if attr["sim_attr_us_fault"] != 1500000 {
		t.Fatalf("attr metrics wrong: %v", attr)
	}
	if v, ok := attr["sim_attr_us_idle"]; !ok || v != 0 {
		t.Fatalf("zero-valued metric dropped: %v", attr)
	}
}

func TestParseBenchBadValue(t *testing.T) {
	if _, err := parseBench(strings.NewReader("BenchmarkX 1 oops ns/op\n")); err == nil {
		t.Fatal("accepted a non-numeric field")
	}
}

func runCompare(t *testing.T, base Baseline, cur map[string]Metrics) (string, []string) {
	t.Helper()
	var sb strings.Builder
	failures := compare(&sb, base, cur)
	return sb.String(), failures
}

func TestCompareClean(t *testing.T) {
	base := Baseline{Benchmarks: map[string]Metrics{
		"BenchmarkA": {"sim_us_p50": 1000, "mbps_app1": 2.961},
	}}
	cur := map[string]Metrics{"BenchmarkA": {"sim_us_p50": 1000, "mbps_app1": 2.961}}
	out, failures := runCompare(t, base, cur)
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
	if !strings.Contains(out, "BenchmarkA") || !strings.Contains(out, "identical") {
		t.Fatalf("table lacks the benchmark's line:\n%s", out)
	}
}

func TestCompareDriftFails(t *testing.T) {
	// Every custom metric is gated exactly, whatever its unit: a change in
	// the last printed digit fails, and the failure shows both values.
	base := Baseline{Benchmarks: map[string]Metrics{
		"BenchmarkA": {"sim_attr_us_fault": 1000, "ratio_1": 2.099},
	}}
	cur := map[string]Metrics{
		"BenchmarkA": {"sim_attr_us_fault": 1000, "ratio_1": 2.098},
	}
	out, failures := runCompare(t, base, cur)
	if len(failures) != 1 || !strings.Contains(failures[0], "ratio_1 2.099 -> 2.098") {
		t.Fatalf("changed metric not caught with old and new value: %v", failures)
	}
	if !strings.Contains(out, "CHANGED") {
		t.Fatalf("table does not flag the change:\n%s", out)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := Baseline{Benchmarks: map[string]Metrics{"BenchmarkGone": {"sim_us_p50": 1}}}
	_, failures := runCompare(t, base, map[string]Metrics{"BenchmarkOther": {"sim_us_p50": 1}})
	if len(failures) != 1 || !strings.Contains(failures[0], "missing from input") {
		t.Fatalf("missing benchmark not caught: %v", failures)
	}
}

func TestCompareVanishedMetricFails(t *testing.T) {
	// A metric present in the baseline but absent from the input fails;
	// it does not read as a silent pass.
	base := Baseline{Benchmarks: map[string]Metrics{
		"BenchmarkA": {"sim_us_p50": 1000, "isolation": 1},
	}}
	_, failures := runCompare(t, base, map[string]Metrics{"BenchmarkA": {"sim_us_p50": 1000}})
	if len(failures) != 1 || !strings.Contains(failures[0], "isolation 1 -> missing") {
		t.Fatalf("vanished metric not caught: %v", failures)
	}
}

func TestCompareZeroBaselineMetric(t *testing.T) {
	// 0 -> 0 passes; 0 -> nonzero fails like any other change.
	base := Baseline{Benchmarks: map[string]Metrics{
		"BenchmarkA": {"sim_us_misses": 0},
	}}
	_, failures := runCompare(t, base, map[string]Metrics{
		"BenchmarkA": {"sim_us_misses": 0},
	})
	if len(failures) != 0 {
		t.Fatalf("0 -> 0 should pass: %v", failures)
	}
	_, failures = runCompare(t, base, map[string]Metrics{
		"BenchmarkA": {"sim_us_misses": 3},
	})
	if len(failures) != 1 || !strings.Contains(failures[0], "0 -> 3") {
		t.Fatalf("0 -> 3 should fail the gate: %v", failures)
	}
}

func TestCompareNewEntriesNotedNotFailed(t *testing.T) {
	base := Baseline{Benchmarks: map[string]Metrics{
		"BenchmarkA": {"sim_us_p50": 1000},
	}}
	cur := map[string]Metrics{
		"BenchmarkA": {
			"sim_us_p50":        1000,
			"sim_attr_us_fault": 777, // new metric, no baseline yet
		},
		"BenchmarkNew": {"mbps": 5},
	}
	out, failures := runCompare(t, base, cur)
	if len(failures) != 0 {
		t.Fatalf("new entries must not fail: %v", failures)
	}
	if !strings.Contains(out, "# new metric (not in baseline): BenchmarkA sim_attr_us_fault") {
		t.Fatalf("new metric not noted:\n%s", out)
	}
	if !strings.Contains(out, "# new benchmark (not in baseline): BenchmarkNew") {
		t.Fatalf("new benchmark not noted:\n%s", out)
	}
}
