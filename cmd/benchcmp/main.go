// Command benchcmp checks `go test -bench` output against a committed
// baseline (BENCH_BASELINE.json). Every custom metric a benchmark reports
// (any unit other than ns/op, B/op and allocs/op) is a simulated result, a
// pure function of the workload and its seed, so each must equal its
// baseline value exactly: any difference fails and prints the old and new
// value. Host speed is not recorded here; hostbench measures it.
//
// Usage:
//
//	go test -run=NONE -bench=. -benchtime=1x ./... | \
//	    go run ./cmd/benchcmp -baseline BENCH_BASELINE.json
//	go test ... | go run ./cmd/benchcmp -baseline BENCH_BASELINE.json -update
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Metrics maps a benchmark's custom units to their values.
type Metrics map[string]float64

// Baseline is the committed file format.
type Baseline struct {
	// Note documents how to regenerate the file.
	Note       string             `json:"note"`
	Benchmarks map[string]Metrics `json:"benchmarks"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parseBench returns the custom metrics of each benchmark in `go test
// -bench` output. Benchmarks that report none are left out.
func parseBench(r io.Reader) (map[string]Metrics, error) {
	out := map[string]Metrics{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		metrics := Metrics{}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchcmp: bad value %q on %q", fields[i], sc.Text())
			}
			switch unit := fields[i+1]; unit {
			case "ns/op", "B/op", "allocs/op":
			default:
				metrics[unit] = val
			}
		}
		if len(metrics) > 0 {
			out[m[1]] = metrics
		}
	}
	return out, sc.Err()
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// compare writes one line per baseline benchmark to w and returns the
// failures: a baseline benchmark missing from the input, and a baseline
// metric that is missing or differs in any digit. Benchmarks and metrics
// absent from the baseline are noted but never fail.
func compare(w io.Writer, base Baseline, current map[string]Metrics) []string {
	var failures []string
	for _, name := range sortedKeys(base.Benchmarks) {
		old := base.Benchmarks[name]
		cur, ok := current[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline but missing from input", name))
			continue
		}
		status := "identical"
		for _, unit := range sortedKeys(old) {
			v, ok := cur[unit]
			switch {
			case !ok:
				failures = append(failures, fmt.Sprintf("%s: %s %g -> missing", name, unit, old[unit]))
			case v != old[unit]:
				failures = append(failures, fmt.Sprintf("%s: %s %g -> %g", name, unit, old[unit], v))
			default:
				continue
			}
			status = "CHANGED"
		}
		for _, unit := range sortedKeys(cur) {
			if _, ok := old[unit]; !ok {
				fmt.Fprintf(w, "# new metric (not in baseline): %s %s\n", name, unit)
			}
		}
		fmt.Fprintf(w, "%-40s %3d metrics %s\n", name, len(old), status)
	}
	for _, name := range sortedKeys(current) {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Fprintf(w, "# new benchmark (not in baseline): %s\n", name)
		}
	}
	return failures
}

func main() {
	log.SetFlags(0)
	baselinePath := flag.String("baseline", "BENCH_BASELINE.json", "baseline file to compare against")
	update := flag.Bool("update", false, "rewrite the baseline from the input instead of comparing")
	flag.Parse()

	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatalf("benchcmp: %v", err)
		}
		defer f.Close()
		in = f
	}
	current, err := parseBench(in)
	if err != nil {
		log.Fatal(err)
	}
	if len(current) == 0 {
		log.Fatal("benchcmp: no benchmark metrics in input")
	}

	if *update {
		b := Baseline{
			Note:       "Regenerate with: make bench-baseline (parses `go test -bench` output via cmd/benchcmp -update).",
			Benchmarks: current,
		}
		buf, err := json.MarshalIndent(&b, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*baselinePath, append(buf, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("benchcmp: wrote %d benchmarks to %s\n", len(current), *baselinePath)
		return
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		log.Fatalf("benchcmp: %v (run with -update to create the baseline)", err)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		log.Fatalf("benchcmp: %s: %v", *baselinePath, err)
	}

	failures := compare(os.Stdout, base, current)
	if len(failures) > 0 {
		fmt.Println()
		for _, f := range failures {
			fmt.Println("FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Println("\nbenchcmp: ok")
}
