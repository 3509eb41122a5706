package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"nemesis/internal/experiments/sweep"
	"nemesis/internal/obs"
)

// fig8TimelineTrace runs a shortened Fig. 8 workload with the timeline on
// and returns the rendered trace-event JSON plus the audit log.
func fig8TimelineTrace(measure time.Duration) ([]byte, []obs.AuditEvent, error) {
	opt := DefaultPagingOptions()
	opt.Forgetful = true
	opt.Measure = measure
	opt.Timeline = true
	r, err := RunPaging(opt)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := r.Sys.WriteTimeline(&buf); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), r.Sys.Obs.AuditLog(), nil
}

// TestFig8TimelineContent is the PR's acceptance test for the trace export:
// the Fig. 8 timeline must validate against the trace-event schema and carry
// per-domain fault spans with hop slices, a resident-frames-vs-guarantee
// counter track per domain, and the revocation episode's full phase
// progression in the audit log.
func TestFig8TimelineContent(t *testing.T) {
	trace, audit, err := fig8TimelineTrace(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTrace(bytes.NewReader(trace)); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	out := string(trace)
	for _, want := range []string{
		`"name":"fault:page"`, // fault spans
		`"name":"driver"`,     // hop slices inside the spans
		`"name":"frames"`,     // frames counter group...
		`"guarantee"`,         // ...with the contract series
		`"held"`,
		`"name":"faults_per_s"`,
		`"name":"cpu_us_per_s"`,   // scheduler occupancy
		`"name":"paging"`,         // page-in/-out rate group
		`"pageouts_per_s"`,        // Fig. 8 is a paging-out workload
		`"name":"resident_pages"`, // pager working set
		`"name":"revoke.begin"`,   // revocation phase instants
		`"name":"hog"`,            // the episode's domain appears as a process
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s", want)
		}
	}
	// Every application domain gets its own frames track and process.
	for _, dom := range []string{"app1-10%", "app2-20%", "app3-40%"} {
		if !strings.Contains(out, `"name":"`+dom+`"`) {
			t.Errorf("trace missing domain %s", dom)
		}
	}

	// The deterministic revocation episode runs begin → transparent →
	// intrusive → complete, in that order.
	var phases []obs.AuditKind
	for _, e := range audit {
		if strings.HasPrefix(string(e.Kind), "revoke.") {
			phases = append(phases, e.Kind)
		}
	}
	want := []obs.AuditKind{obs.AuditRevokeBegin, obs.AuditRevokeTransparent,
		obs.AuditRevokeIntrusive, obs.AuditRevokeComplete}
	if len(phases) != len(want) {
		t.Fatalf("revocation phases = %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("revocation phases = %v, want %v", phases, want)
		}
	}
}

// TestFig8TimelineParallelByteIdentity pins the other half of the acceptance
// criteria: the exported timeline must be byte-identical whether the cell
// runs alone or inside an 8-worker parallel sweep.
func TestFig8TimelineParallelByteIdentity(t *testing.T) {
	serial, _, err := fig8TimelineTrace(6 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cells := []int{0, 1, 2, 3}
	traces, err := sweep.Map(context.Background(), 8, cells, func(context.Context, int) ([]byte, error) {
		tr, _, err := fig8TimelineTrace(6 * time.Second)
		return tr, err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range traces {
		if !bytes.Equal(tr, serial) {
			t.Fatalf("parallel cell %d trace differs from the serial run (%d vs %d bytes)",
				i, len(tr), len(serial))
		}
	}
}

// TestNetswapDegradeAuditTransitions checks E8c leaves a structured record
// of its tier transitions: the outage trips net.degrade, the cooldown expiry
// emits net.probe, and the healed link emits net.restore — in that order.
func TestNetswapDegradeAuditTransitions(t *testing.T) {
	res, err := RunNetswapDegrade(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	order := map[obs.AuditKind]int{}
	for i, e := range res.Audit {
		if _, seen := order[e.Kind]; !seen {
			order[e.Kind] = i
		}
		if strings.HasPrefix(string(e.Kind), "net.") && e.Domain != "tiered" {
			t.Errorf("net audit event for wrong domain: %+v", e)
		}
	}
	deg, okD := order[obs.AuditNetswapDegrade]
	prb, okP := order[obs.AuditNetswapProbe]
	rst, okR := order[obs.AuditNetswapRestore]
	if !okD || !okP || !okR {
		t.Fatalf("missing transitions (degrade=%v probe=%v restore=%v) in audit: %+v",
			okD, okP, okR, res.Audit)
	}
	if !(deg < prb && prb < rst) {
		t.Fatalf("transitions out of order: degrade@%d probe@%d restore@%d", deg, prb, rst)
	}
}
