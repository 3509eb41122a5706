package experiments

import (
	"context"
	"testing"
	"time"
)

// TestSuiteSerialEqualsParallel pins the sweep runner's determinism end to
// end: the full suite, run serially and with a fan-out, must produce
// byte-identical cell output (every cell is its own seeded Simulator, so
// goroutine interleaving between cells cannot leak into results).
func TestSuiteSerialEqualsParallel(t *testing.T) {
	const measure = time.Second
	serial, err := RunSuite(context.Background(), measure, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSuite(context.Background(), measure, 4)
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
