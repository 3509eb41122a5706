package experiments

import (
	"context"
	"slices"
	"testing"
	"time"
)

// TestSuiteSerialEqualsParallel pins the sweep runner's determinism end to
// end: the full suite, run serially and with a fan-out, must produce
// byte-identical cell output (every cell is its own seeded Simulator, so
// goroutine interleaving between cells cannot leak into results).
func TestSuiteSerialEqualsParallel(t *testing.T) {
	const measure = time.Second
	serial, err := RunSuite(context.Background(), measure, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSuite(context.Background(), measure, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("cell count: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Name != parallel[i].Name {
			t.Errorf("cell %d name: serial %q, parallel %q", i, serial[i].Name, parallel[i].Name)
		}
		if serial[i].Output != parallel[i].Output {
			t.Errorf("cell %q output differs:\nserial:\n%s\nparallel:\n%s",
				serial[i].Name, serial[i].Output, parallel[i].Output)
		}
	}
}

// TestSuiteCellsSelectByPrefix pins the -cells selection: prefixes pick
// cells in suite order, a cell two prefixes match runs once, no prefixes
// pick all 19 cells, and a prefix matching no cell (or an empty one) is an
// error.
func TestSuiteCellsSelectByPrefix(t *testing.T) {
	all, err := SuiteCellNames(nil)
	if err != nil || len(all) != 19 {
		t.Fatalf("all cells: %d names, %v; want 19", len(all), err)
	}
	got, err := SuiteCellNames([]string{"E8", "A", "E8a"})
	want := []string{"A1 laxity", "A2 fcfs-disk", "A3 crosstalk", "A4 slack", "A5 revocation",
		"E8a netswap-sweep", "E8b netswap-outage", "E8c netswap-degrade"}
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("E8,A,E8a selected %q, %v; want %q", got, err, want)
	}
	for _, bad := range [][]string{{"A", "X"}, {"A", ""}} {
		if _, err := SuiteCellNames(bad); err == nil {
			t.Errorf("prefixes %q accepted", bad)
		}
	}
	cells, err := RunSuite(context.Background(), time.Second, 1, []string{"E3"})
	if err != nil || len(cells) != 1 || cells[0].Name != "E3 guarded-pt" {
		t.Fatalf("RunSuite E3: %v, %v", cells, err)
	}
}
