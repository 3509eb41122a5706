// Command hostbench measures how fast the simulator runs on the host.
//
// Each invocation runs one workload as a closed loop in its own process,
// checks every operation's output, and prints one JSON object as its last
// line of standard output:
//
//	hostbench --workload fig7-pagein --seed 1 --seconds 22 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics (wall time, CPU,
// allocation and memory per operation, and set-up time). With --trace 1 the
// same operations run again with a CPU profile on, and the object carries
// the per-layer split of host CPU folded from that profile plus the
// runtime's scheduler and GC counters. README.md explains the workloads and
// metrics; run.sh builds and runs the program from a source checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// op is one timed operation: a RunSpec call or one HTTP request.
type op struct {
	class string // workload-defined; serve-mix uses hit, warm7 and warm8
	dur   time.Duration
	ok    bool
}

// workload is one benchmark load. setup builds its inputs from the seed
// and runs the untimed warm-up, a few seconds of the workload's own ops.
// run drives the closed loop until the deadline. layers adds the
// workload's own per-layer figures for the ops of the phase run last
// returned.
type workload interface {
	setup() error
	run(deadline time.Time) []op
	check() error
	layers(ops []op, put func(name string, v float64))
	close()
}

// spec describes how a workload runs in its process.
type spec struct {
	procs int // GOMAXPROCS
	make  func(seed int64) workload
}

// The single simulations run on one proc: with two, the GC's concurrent
// marking let the peak RSS of fig8 swing between 42 and 66 MB from run to
// run. cluster-5k's GC needs the second core, and serve-mix runs two
// simulations at once. The warm-up counts make each set-up about 3 s long,
// so that setup_s averages over many ops rather than a few.
var workloads = map[string]spec{
	"fig7-pagein":  {procs: 1, make: func(s int64) workload { return newFigure(7, s, 14) }},
	"fig8-pageout": {procs: 1, make: func(s int64) workload { return newFigure(8, s, 40) }},
	"cluster-5k":   {procs: 2, make: newCluster},
	"serve-mix":    {procs: 2, make: newServeMix},
}

// metric is one named value with its unit, as the result line reports it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	start := time.Now()
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed; picks the specs and the request stream")
	seconds := flag.Float64("seconds", 22, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced phase and reports per-layer metrics")
	flag.Parse()
	ws, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "hostbench: want --workload one of %s, --seconds > 0, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(ws.procs)
	res, err := bench(*name, ws, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// bench sets the workload up, then runs its timed phase. setup_s runs from
// start, the start of the process, to the first timed op. An untraced run
// times the whole window; a traced run times its first half untraced (the
// baseline for the tracing overhead) and profiles the second half.
func bench(name string, ws spec, seed int64, window time.Duration, traced bool, start time.Time) (*result, error) {
	w := ws.make(seed)
	defer w.close()
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	res := &result{Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) {
			v = 0 // a class with no ops in the phase, as a layer the workload never runs
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	var phases []*phase
	if !traced {
		timed, err := runPhase(w, window, false)
		if err != nil {
			return nil, err
		}
		e2e(timed, put)
		phases = []*phase{timed}
	} else {
		base, err := runPhase(w, window/2, false)
		if err != nil {
			return nil, err
		}
		timed, err := runPhase(w, window/2, true)
		if err != nil {
			return nil, err
		}
		if err = perLayer(w, base, timed, put); err != nil {
			return nil, err
		}
		phases = []*phase{base, timed}
	}
	setup := phases[0].start.Sub(start).Seconds()
	if !traced {
		put("setup_s", "s", setup)
	}
	for _, p := range phases {
		res.Attempted += len(p.ops)
		res.Failed += p.failed()
	}
	checked := w.check()
	if checked != nil {
		fmt.Fprintf(os.Stderr, "hostbench: %s: %v\n", name, checked)
	}
	res.Correct = checked == nil && res.Failed == 0 && res.Attempted > 0
	timed := phases[len(phases)-1]
	ms := timed.millis("")
	fmt.Printf("%s seed=%d traced=%v ops=%d failed=%d op_ms q1=%.3f median=%.3f q3=%.3f p90=%.3f setup_s=%.3f\n",
		name, seed, traced, len(timed.ops), timed.failed(),
		quantile(ms, 0.25), quantile(ms, 0.5), quantile(ms, 0.75), quantile(ms, 0.9), setup)
	return res, nil
}

// e2e reports the end-to-end metrics of an untraced phase.
func e2e(p *phase, put func(name, unit string, v float64)) {
	ms := p.millis("")
	n := float64(len(p.ops))
	put("op_ms_p90", "ms", quantile(ms, 0.9))
	put("cpu_ms_per_op", "ms", p.cpu().Seconds()*1e3/n)
	put("alloc_mb_per_op", "MB", p.allocBytes()/1e6/n)
	put("rss_mb_peak", "MB", p.after.maxRSS/1e6)
}
