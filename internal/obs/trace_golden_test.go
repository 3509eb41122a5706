package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nemesis/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// tracedMachine is one machine of a golden dump: a simulator, its registry
// and a recorder sampling every interval.
type tracedMachine struct {
	s   *sim.Simulator
	r   *Registry
	rec *Recorder
}

func newTracedMachine(interval time.Duration) tracedMachine {
	s := sim.New(1)
	r := NewRegistry(s.Now)
	return tracedMachine{s: s, r: r, rec: NewRecorder(r, s, RecorderConfig{Interval: interval, Cap: 8})}
}

// span records one finished span: thread may be "", flow 0 takes none,
// and a flow of ^0 asks the registry for a fresh one. Each hop lasts 1 ms.
func (m tracedMachine) span(domain, class, thread string, flow uint64, outcome string, hops ...string) uint64 {
	sp := m.r.StartSpan(m.r.DomainNum(domain), class)
	if thread != "" {
		sp.SetThread(thread)
	}
	switch flow {
	case 0:
	case ^uint64(0):
		flow = sp.EnsureFlow()
	default:
		sp.SetFlow(flow)
	}
	for _, h := range hops {
		sp.BeginHop(h)
		m.s.RunFor(time.Millisecond)
	}
	sp.Finish(outcome)
	return flow
}

func (m tracedMachine) dump() *TimelineDump { return Timeline{Reg: m.r, Rec: m.rec}.Dump() }

// singleTraceDump is one machine's timeline holding every single-layout
// case: a grouped counter track, a rate track and a system gauge (over
// more samples than the ring keeps); spans with and without a thread,
// one carrying a flow and one of the service class; and audit events from
// the system and from domains, one of them known only from the audit log.
func singleTraceDump() *TimelineDump {
	m := newTracedMachine(100 * time.Millisecond)
	held, faults := int64(1), int64(0)
	m.rec.TrackGauge("frames", "held", "alpha", "frames", func() int64 { return held })
	m.rec.TrackGauge("frames", "guarantee", "alpha", "frames", func() int64 { return 4 })
	m.rec.TrackRate("", "faults", "beta", "per_s", func() int64 { return faults })
	m.rec.TrackGauge("", "free_frames", "", "frames", func() int64 { return 100 - held })
	m.rec.Start()

	m.s.RunFor(250 * time.Millisecond)
	m.span("alpha", "page", "alpha.worker", ^uint64(0), "worker", "kernel", "usd.read")
	held, faults = 3, 7
	m.span("beta", "page", "", 0, "fast", "kernel")
	m.span("beta", "service", "swap.w0", 9, "ok", "queue", "store")
	m.span("gamma", "page", "gamma.main", 0, "worker", "kernel", "map")
	m.r.Audit(AuditNetswapProbe, "", "", 0, "probe")
	m.r.Audit(AuditGuaranteeViolation, "alpha", "beta", 2, "starved")
	m.r.Audit(AuditRevokeBegin, "delta", "", 4, "")
	m.s.RunFor(600 * time.Millisecond)
	faults = 12
	m.span("alpha", "page", "alpha.worker", 0, "fast", "kernel")
	m.s.RunFor(300 * time.Millisecond)
	return m.dump()
}

// mergedTraceDump is a merged cluster dump holding every merged-layout
// case: a lane named "", a client machine and its swap lane, sampling at
// different instants, and a declared machine with no dump. Client flow 1
// is answered by two service spans on one worker thread (a step, then a
// finish); client flow 2 is answered by none, so it draws no arrow.
func mergedTraceDump() *TimelineDump {
	cl := newTracedMachine(100 * time.Millisecond)
	cl.r.SetFlowBase(1 << 40)
	held := int64(2)
	cl.rec.TrackGauge("frames", "held", "alpha", "frames", func() int64 { return held })
	cl.rec.TrackGauge("frames", "guarantee", "alpha", "frames", func() int64 { return 2 })
	cl.rec.TrackGauge("", "free_frames", "", "frames", func() int64 { return 50 - held })
	cl.rec.Start()

	srv := newTracedMachine(150 * time.Millisecond)
	rpcs := int64(0)
	srv.rec.TrackRate("", "rpcs", "", "per_s", func() int64 { return rpcs })
	srv.rec.TrackGauge("", "queue", "alpha", "reqs", func() int64 { return rpcs % 3 })
	srv.s.RunFor(40 * time.Millisecond)
	srv.rec.Start()

	cl.s.RunFor(120 * time.Millisecond)
	srv.s.RunFor(130 * time.Millisecond)
	answered := cl.span("alpha", "page", "alpha.main", ^uint64(0), "remote", "kernel", "net.out", "net.in", "map")
	unanswered := cl.span("beta", "page", "beta.main", ^uint64(0), "remote", "kernel", "net.out", "net.in")
	cl.span("", "page", "", 0, "fast", "kernel")
	srv.span("alpha", "service", "m0.swap0.w0", answered, "ok", "queue", "store")
	srv.span("alpha", "service", "m0.swap0.w0", answered, "ok", "queue", "store")
	srv.span("gamma", "service", "", unanswered+100, "error", "queue")
	rpcs = 3
	held = 5
	cl.r.Audit(AuditNetswapDegrade, "beta", "", 0, "budget")
	cl.r.Audit(AuditRevokeKill, "", "alpha", 3, "non-compliant")
	srv.r.Audit(AuditRevokeTimeout, "", "", 0, "")
	cl.s.RunFor(500 * time.Millisecond)
	srv.s.RunFor(500 * time.Millisecond)

	lane := newTracedMachine(200 * time.Millisecond)
	lane.rec.TrackGauge("", "machines", "", "count", func() int64 { return 2 })
	lane.rec.Start()
	lane.r.Audit(AuditCrosstalk, "alpha", "beta", 0, "surge")
	lane.s.RunFor(500 * time.Millisecond)

	return MergeTimelines([]MachineTimeline{
		{Machine: "", Dump: lane.dump()},
		{Machine: "m0", Dump: cl.dump()},
		{Machine: "m0.swap0", Dump: srv.dump()},
		{Machine: "m1"},
	})
}

// TestTraceGolden pins the bytes of both trace layouts: a single
// machine's timeline and a merged cluster dump. `go test ./internal/obs
// -run TraceGolden -update` rewrites the files, for a deliberate change of
// the export only.
func TestTraceGolden(t *testing.T) {
	for _, c := range []struct {
		file string
		dump *TimelineDump
	}{
		{"trace_single.golden", singleTraceDump()},
		{"trace_merged.golden", mergedTraceDump()},
	} {
		var buf bytes.Buffer
		if err := c.dump.WriteTrace(&buf); err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		if err := ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		path := filepath.Join("testdata", c.file)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading golden file (run with -update to generate): %v", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("trace drifted from %s\n got:\n%s", path, buf.Bytes())
		}
	}
}
