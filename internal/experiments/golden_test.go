package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fig7Fingerprint runs a short Fig. 7 configuration and reduces the full USD
// scheduler trace plus the bandwidth summary to a stable string. Any drift in
// simulated event order — an extra disk transaction, a reordered eviction, a
// changed lax charge — changes the hash.
func fig7Fingerprint(t *testing.T) string {
	t.Helper()
	opt := DefaultPagingOptions()
	opt.VirtBytes = 1 << 20
	opt.Measure = 5 * time.Second
	r, err := RunPaging(opt)
	if err != nil {
		t.Fatalf("RunPaging: %v", err)
	}
	h := sha256.New()
	events := r.Log.Events()
	for _, e := range events {
		fmt.Fprintf(h, "%d %s %d %d\n", e.Kind, e.Client, e.Start, e.End)
	}
	for _, m := range r.MeanMbps {
		fmt.Fprintf(h, "mbps %v\n", m)
	}
	return fmt.Sprintf("events=%d sha256=%x", len(events), h.Sum(nil))
}

// TestFig7GoldenTrace guards the pager refactor against event-order drift:
// the same seed and configuration must produce a byte-identical scheduler
// trace before and after. Regenerate with `go test -run Golden -update`
// only when a deliberate behavioural change is intended.
func TestFig7GoldenTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	got := fig7Fingerprint(t)
	path := filepath.Join("testdata", "fig7_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %s", path, got)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to generate): %v", err)
	}
	if got+"\n" != string(want) {
		t.Errorf("Fig. 7 trace fingerprint drifted\n got: %s\nwant: %s", got, string(want))
	}
}

// TestSuiteGolden pins every simulated number of the 19-cell suite, Table 1
// rows included: the canonical 5 s suite body (the bytes `nemesis-paging
// -suite -measure 5s -suite-json` writes and nemesis-serve returns) must
// match testdata/suite_golden.json byte for byte. Regenerate with
// `go test -run SuiteGolden -update` only for a deliberate re-baseline.
func TestSuiteGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out, err := RunSpec(context.Background(), Spec{Kind: KindSuite, Measure: Duration(5 * time.Second)}, 0)
	if err != nil {
		t.Fatalf("RunSpec: %v", err)
	}
	got, err := EncodeResult(out.Result)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "suite_golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d bytes", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to generate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("suite body drifted from %s (%d bytes, want %d)\n got:\n%s\nwant:\n%s", path, len(got), len(want), got, want)
	}
}
