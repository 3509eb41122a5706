package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"nemesis/internal/obs"
)

// tracedClusterOpts is the tests' scaled-down traced cluster: two machines
// so the merged dump has at least two client lanes, two servers each so
// server-side lanes appear too.
func tracedClusterOpts(workers int) ClusterOptions {
	opt := clusterOpts(2, 20)
	opt.Servers = 2
	opt.Workers = workers
	opt.Trace = true
	return opt
}

// TestClusterTraceDeterministicAcrossWorkers extends the serial-vs-parallel
// identity to the observability plane: the merged cross-machine trace and
// the cluster rollup must be byte-identical whether machines run on one
// worker or fan out across eight.
func TestClusterTraceDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) (trace, summary []byte) {
		t.Helper()
		res, err := RunCluster(context.Background(), tracedClusterOpts(workers))
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace == nil || res.Summary == nil {
			t.Fatal("traced run produced no trace or no summary")
		}
		var tb bytes.Buffer
		if err := res.Trace.WriteTrace(&tb); err != nil {
			t.Fatal(err)
		}
		sb, err := json.Marshal(res.Summary)
		if err != nil {
			t.Fatal(err)
		}
		return tb.Bytes(), sb
	}
	serialTrace, serialSum := render(1)
	parallelTrace, parallelSum := render(8)
	if !bytes.Equal(serialTrace, parallelTrace) {
		t.Fatalf("merged trace differs between 1 and 8 workers (%d vs %d bytes)", len(serialTrace), len(parallelTrace))
	}
	if !bytes.Equal(serialSum, parallelSum) {
		t.Fatalf("cluster rollup differs between 1 and 8 workers:\n--- serial ---\n%s\n--- parallel ---\n%s", serialSum, parallelSum)
	}
}

// TestClusterTraceFlowsAcrossMachines validates the merged trace and pins
// what makes it a CLUSTER trace: it passes the same validator nemesis-
// timeline -check runs, renders a process lane per machine and per swap
// server, and carries flow arrows whose start (client net.out hop) and
// finish (server service slice) sit in different process lanes.
func TestClusterTraceFlowsAcrossMachines(t *testing.T) {
	res, err := RunCluster(context.Background(), tracedClusterOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Trace.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("merged trace fails validation: %v", err)
	}

	var doc struct {
		TraceEvents []struct {
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			ID   *uint64         `json:"id"`
			Name string          `json:"name"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}

	// Lane inventory: process_name metadata must cover every machine and
	// every swap server.
	lanes := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			var args struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal(ev.Args, &args); err != nil {
				t.Fatal(err)
			}
			lanes[args.Name] = true
		}
	}
	for _, want := range []string{"m0", "m1", "m0.swap0", "m0.swap1", "m1.swap0", "m1.swap1"} {
		if !lanes[want] {
			t.Fatalf("merged trace lacks lane %q (got %v)", want, lanes)
		}
	}

	// Flow arrows: every flow ID's start and at least one step/finish must
	// live in different pids — that IS the cross-machine link.
	startPid := map[uint64]int{}
	crossed := map[uint64]bool{}
	var starts, binds int
	for _, ev := range doc.TraceEvents {
		if ev.ID == nil {
			continue
		}
		switch ev.Ph {
		case "s":
			starts++
			startPid[*ev.ID] = ev.Pid
		case "t", "f":
			binds++
			if pid, ok := startPid[*ev.ID]; ok && pid != ev.Pid {
				crossed[*ev.ID] = true
			}
		}
	}
	if starts == 0 || binds == 0 {
		t.Fatalf("no flow events in merged trace (starts=%d binds=%d)", starts, binds)
	}
	if len(crossed) == 0 {
		t.Fatal("no flow links a client lane to a server lane")
	}
	// Machine lanes (client side) must originate flows on BOTH machines.
	clientPids := map[int]bool{}
	for _, pid := range startPid {
		clientPids[pid] = true
	}
	if len(clientPids) < 2 {
		t.Fatalf("flow starts confined to one machine lane: pids %v", clientPids)
	}
}
