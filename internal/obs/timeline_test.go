package obs

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"nemesis/internal/sim"
)

func TestAuditLogBasics(t *testing.T) {
	r, fc := newTestRegistry()
	r.Audit(AuditRevokeBegin, "hog", "", 8, "")
	fc.advance(10 * time.Millisecond)
	r.Audit(AuditRevokeComplete, "hog", "", 8, "intrusive")
	r.Audit(AuditCrosstalk, "victim", "suspect", 0, "surge")

	log := r.AuditLog()
	if len(log) != 3 {
		t.Fatalf("audit log has %d events", len(log))
	}
	if log[0].At != 0 || log[1].At != sim.Time(10*time.Millisecond) {
		t.Fatalf("timestamps = %v, %v", log[0].At, log[1].At)
	}
	if got := r.AuditByKind(AuditCrosstalk); len(got) != 1 || got[0].Other != "suspect" {
		t.Fatalf("AuditByKind(crosstalk) = %+v", got)
	}
	if got := r.AuditByKind(AuditRevokeKill); got != nil {
		t.Fatalf("AuditByKind(kill) = %+v", got)
	}

	var buf bytes.Buffer
	if err := r.WriteAuditTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "revoke.complete\thog\t\t8\tintrusive") {
		t.Fatalf("TSV missing row:\n%s", buf.String())
	}

	// Nil registry: all no-ops.
	var nr *Registry
	nr.Audit(AuditRevokeKill, "x", "", 0, "")
	if nr.AuditLog() != nil || nr.AuditByKind(AuditRevokeKill) != nil {
		t.Fatal("nil registry audit not empty")
	}
}

func TestSpansEvictedCounter(t *testing.T) {
	r, fc := newTestRegistry()
	// Below capacity: no counter appears at all.
	for i := 0; i < DefaultSpanCap; i++ {
		sp := r.StartSpan(r.DomainNum("d"), "page")
		fc.advance(time.Microsecond)
		sp.Finish("fast")
	}
	if r.SpansEvicted() != 0 {
		t.Fatalf("evicted = %d before overflow", r.SpansEvicted())
	}
	if r.LookupCounter("obs", "spans_evicted", "") != nil {
		t.Fatal("spans_evicted counter created before any eviction")
	}
	// Push past the ring.
	const extra = 137
	for i := 0; i < extra; i++ {
		sp := r.StartSpan(r.DomainNum("d"), "page")
		fc.advance(time.Microsecond)
		sp.Finish("fast")
	}
	if r.SpansEvicted() != extra {
		t.Fatalf("evicted = %d, want %d", r.SpansEvicted(), extra)
	}
	if c := r.LookupCounter("obs", "spans_evicted", ""); c.Value() != extra {
		t.Fatalf("counter = %d, want %d", c.Value(), extra)
	}
	if len(r.Spans()) != DefaultSpanCap {
		t.Fatalf("retained %d spans", len(r.Spans()))
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	r, _ := newTestRegistry()

	empty := r.Histogram("t", "empty", "")
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v", q, got)
		}
	}

	single := r.Histogram("t", "single", "")
	single.Observe(3 * time.Millisecond)
	for _, q := range []float64{-1, 0, 0.001, 0.5, 0.999, 1, 2} {
		if got := single.Quantile(q); got != 3*time.Millisecond {
			t.Fatalf("single Quantile(%v) = %v", q, got)
		}
	}

	multi := r.Histogram("t", "multi", "")
	multi.Observe(time.Millisecond)
	multi.Observe(10 * time.Millisecond)
	// Out-of-range q clamps to the exact min/max, never extrapolates.
	if got := multi.Quantile(-0.5); got != time.Millisecond {
		t.Fatalf("Quantile(-0.5) = %v", got)
	}
	if got := multi.Quantile(1.5); got != 10*time.Millisecond {
		t.Fatalf("Quantile(1.5) = %v", got)
	}
	// In-range values stay within [min, max].
	for q := 0.01; q < 1; q += 0.07 {
		got := multi.Quantile(q)
		if got < time.Millisecond || got > 10*time.Millisecond {
			t.Fatalf("Quantile(%v) = %v outside observed range", q, got)
		}
	}

	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile")
	}
}

func TestRecorderSamplesAndRates(t *testing.T) {
	s := sim.New(1)
	r := NewRegistry(s.Now)
	rc := NewRecorder(r, s, RecorderConfig{Interval: 100 * time.Millisecond, Cap: 8})

	level := int64(5)
	var cum int64
	tLevel := rc.TrackGauge("g", "level", "dom", "frames", func() int64 { return level })
	tRate := rc.TrackRate("", "rate", "dom", "per_s", func() int64 { return cum })
	rc.Start()

	// Each 100 ms interval adds 50 to the cumulative source -> 500/s.
	for i := 0; i < 4; i++ {
		s.RunFor(100 * time.Millisecond)
		cum += 50 // applied after the tick at this boundary ran
	}
	// The tick at t=100ms sees cum of the first window, etc. Drive four
	// more intervals with the source advancing mid-window instead.
	level = 7
	s.RunFor(400 * time.Millisecond)

	if rc.Samples() != 8 || rc.Total() != 8 {
		t.Fatalf("samples=%d total=%d", rc.Samples(), rc.Total())
	}
	times := rc.Times()
	if len(times) != 8 || times[0] != sim.Time(100*time.Millisecond) || times[7] != sim.Time(800*time.Millisecond) {
		t.Fatalf("times = %v", times)
	}
	levels := rc.Values(tLevel)
	if levels[0] != 5 || levels[7] != 7 {
		t.Fatalf("levels = %v", levels)
	}
	rates := rc.Values(tRate)
	// Windows 2..4 each saw +50 over 0.1 s = 500/s (window 1's delta is 0:
	// the first increment landed after its tick).
	if rates[1] != 500 || rates[3] != 500 {
		t.Fatalf("rates = %v", rates)
	}

	// Ring overwrite: four more samples displace the oldest four.
	s.RunFor(400 * time.Millisecond)
	if rc.Samples() != 8 || rc.Total() != 12 {
		t.Fatalf("after wrap samples=%d total=%d", rc.Samples(), rc.Total())
	}
	times = rc.Times()
	if times[0] != sim.Time(500*time.Millisecond) || times[7] != sim.Time(1200*time.Millisecond) {
		t.Fatalf("wrapped times = %v", times)
	}

	rc.Stop()
	s.RunFor(time.Second)
	if rc.Total() != 12 {
		t.Fatal("recorder sampled after Stop")
	}
}

func TestRecorderLateTrackBackfillsZero(t *testing.T) {
	s := sim.New(1)
	r := NewRegistry(s.Now)
	rc := NewRecorder(r, s, RecorderConfig{Interval: 100 * time.Millisecond, Cap: 16})
	rc.Start()
	s.RunFor(300 * time.Millisecond)

	late := rc.TrackGauge("", "late", "dom", "frames", func() int64 { return 9 })
	s.RunFor(200 * time.Millisecond)
	vals := rc.Values(late)
	if !reflect.DeepEqual(vals, []float64{0, 0, 0, 9, 9}) {
		t.Fatalf("late track values = %v", vals)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var rc *Recorder
	if tr := rc.TrackGauge("", "x", "", "", func() int64 { return 1 }); tr != nil {
		t.Fatal("nil recorder returned a track")
	}
	rc.Start()
	rc.Stop()
	if rc.Samples() != 0 || rc.Total() != 0 || rc.Times() != nil || rc.Values(nil) != nil {
		t.Fatal("nil recorder not inert")
	}
	if NewRecorder(nil, sim.New(1), RecorderConfig{}) != nil {
		t.Fatal("nil registry should yield nil recorder")
	}
}

func TestCrosstalkFlushTrailingWindow(t *testing.T) {
	s := sim.New(1)
	r := NewRegistry(s.Now)
	// One domain collapsing, one surging. Period 1 s, baseline 2.
	cfg := CrosstalkConfig{Period: time.Second, Baseline: 2, DegradeFrac: 0.7, SurgeFrac: 1.5}
	var victimProgress, suspectFaults int64
	m := NewCrosstalkMonitor(r, s, cfg, func() ([]DomainSample, Pressure) {
		return []DomainSample{
			{Dom: r.DomainNum("victim"), Progress: victimProgress},
			{Dom: r.DomainNum("suspect"), Faults: suspectFaults, Order: 1},
		}, Pressure{FreeFrames: 1}
	})
	m.Start()

	// Build steady baselines over full windows: victim 1000/s, suspect 100/s.
	for i := 0; i < 4; i++ {
		victimProgress += 1000
		suspectFaults += 100
		s.RunFor(time.Second)
	}
	if len(m.Flags()) != 0 {
		t.Fatalf("flags during steady state: %+v", m.Flags())
	}
	ticksBefore := m.Ticks()

	// Half a window of collapse + surge, then Stop mid-window.
	victimProgress += 100 // 200/s over 0.5 s — far below 70% of 1000/s
	suspectFaults += 1000 // 2000/s — far above 150% of 100/s
	s.RunFor(500 * time.Millisecond)
	m.Stop()

	if m.Ticks() != ticksBefore+1 {
		t.Fatalf("trailing window not flushed: ticks %d -> %d", ticksBefore, m.Ticks())
	}
	flags := m.Flags()
	if len(flags) != 1 {
		t.Fatalf("flags after flush = %+v", flags)
	}
	f := flags[0]
	if f.Victim != "victim" || f.Suspect != "suspect" {
		t.Fatalf("flag = %+v", f)
	}
	if f.Window != 500*time.Millisecond {
		t.Fatalf("flag window = %v, want the partial 500ms", f.Window)
	}
	if math.Abs(f.VictimRate-200) > 1 || math.Abs(f.SuspectRate-2000) > 10 {
		t.Fatalf("partial-window rates not scaled: %+v", f)
	}
	// The flag is mirrored into the audit log.
	if au := r.AuditByKind(AuditCrosstalk); len(au) != 1 || au[0].Domain != "victim" || au[0].Other != "suspect" {
		t.Fatalf("crosstalk audit = %+v", au)
	}

	// Stop again: no double flush.
	m.Stop()
	if m.Ticks() != ticksBefore+1 {
		t.Fatal("second Stop flushed again")
	}
}

func TestCrosstalkStopAtTickBoundaryNoEmptyFlush(t *testing.T) {
	s := sim.New(1)
	r := NewRegistry(s.Now)
	m := NewCrosstalkMonitor(r, s, CrosstalkConfig{Period: time.Second}, func() ([]DomainSample, Pressure) {
		return []DomainSample{{Dom: r.DomainNum("d")}}, Pressure{}
	})
	m.Start()
	s.RunFor(3 * time.Second)
	ticks := m.Ticks()
	m.Stop() // exactly at a tick boundary: zero elapsed, nothing to flush
	if m.Ticks() != ticks {
		t.Fatalf("zero-length window flushed: %d -> %d", ticks, m.Ticks())
	}
}

// buildDump assembles a registry + recorder with one of everything.
func buildDump(t *testing.T) *TimelineDump {
	t.Helper()
	s := sim.New(1)
	r := NewRegistry(s.Now)
	rc := NewRecorder(r, s, RecorderConfig{Interval: 100 * time.Millisecond, Cap: 64})
	held := int64(3)
	rc.TrackGauge("frames", "held", "dom1", "frames", func() int64 { return held })
	rc.TrackGauge("frames", "guarantee", "dom1", "frames", func() int64 { return 2 })
	rc.TrackGauge("", "free_frames", "", "frames", func() int64 { return 100 })
	rc.Start()

	s.RunFor(50 * time.Millisecond)
	sp := r.StartSpan(r.DomainNum("dom1"), "page")
	sp.SetThread("worker")
	sp.BeginHop("kernel")
	s.RunFor(time.Millisecond)
	sp.BeginHop("usd.read")
	s.RunFor(2 * time.Millisecond)
	sp.Finish("worker")

	r.Audit(AuditRevokeBegin, "dom1", "", 4, "")
	r.Audit(AuditGuaranteeViolation, "dom1", "dom2", 2, "starved")
	s.RunFor(500 * time.Millisecond)

	return Timeline{Reg: r, Rec: rc}.Dump()
}

func TestTimelineDumpShape(t *testing.T) {
	d := buildDump(t)
	if len(d.Tracks) != 3 || len(d.Spans) != 1 || len(d.Audit) != 2 {
		t.Fatalf("dump: %d tracks, %d spans, %d audit", len(d.Tracks), len(d.Spans), len(d.Audit))
	}
	if len(d.Tracks[0].TimesNs) != len(d.Tracks[0].Values) {
		t.Fatalf("times %d != values %d", len(d.Tracks[0].TimesNs), len(d.Tracks[0].Values))
	}
	sp := d.Spans[0]
	if sp.Domain != "dom1" || len(sp.Hops) != 2 || sp.Hops[1].Name != "usd.read" {
		t.Fatalf("span = %+v", sp)
	}
	if sp.Hops[0].StartNs != sp.StartNs || sp.Hops[1].EndNs != sp.EndNs {
		t.Fatalf("hops not contiguous with span: %+v", sp)
	}
	// Nil-registry timeline dumps cleanly.
	if e := (Timeline{}).Dump(); len(e.Tracks)+len(e.Spans)+len(e.Audit) != 0 {
		t.Fatal("empty timeline not empty")
	}
}

func TestWriteTraceValidatesAndIsDeterministic(t *testing.T) {
	d := buildDump(t)
	var a, b bytes.Buffer
	if err := d.WriteTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("trace output not deterministic")
	}
	if err := ValidateTrace(bytes.NewReader(a.Bytes())); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	out := a.String()
	for _, want := range []string{
		`"name":"frames"`,        // grouped counter track
		`"held":3`,               // series within the group
		`"name":"fault:page"`,    // span slice
		`"name":"usd.read"`,      // hop slice
		`"name":"revoke.begin"`,  // audit instant
		`"name":"qos.violation"`, // audit instant
		`"name":"process_name"`,  // metadata
		`"name":"thread_name"`,   // lane names
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %s", want)
		}
	}
	// No scientific notation in timestamps.
	if strings.Contains(out, "e+") || strings.Contains(out, "E+") {
		t.Fatal("trace contains scientific-notation numbers")
	}
}

func TestValidateTraceRejects(t *testing.T) {
	cases := map[string]string{
		"not json":      `]`,
		"empty events":  `{"traceEvents":[]}`,
		"no name":       `{"traceEvents":[{"ph":"X","pid":1,"ts":1,"dur":1}]}`,
		"bad phase":     `{"traceEvents":[{"name":"a","ph":"Z","pid":1,"ts":1}]}`,
		"no pid":        `{"traceEvents":[{"name":"a","ph":"i","ts":1}]}`,
		"no ts":         `{"traceEvents":[{"name":"a","ph":"i","pid":1}]}`,
		"X without dur": `{"traceEvents":[{"name":"a","ph":"X","pid":1,"ts":1}]}`,
	}
	for name, doc := range cases {
		if err := ValidateTrace(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := `{"traceEvents":[{"name":"m","ph":"M","pid":1},{"name":"a","ph":"X","pid":1,"ts":1,"dur":2}]}`
	if err := ValidateTrace(strings.NewReader(ok)); err != nil {
		t.Fatalf("minimal valid trace rejected: %v", err)
	}
}

func TestWriteJSONIncludesAudit(t *testing.T) {
	r, _ := newTestRegistry()
	r.Audit(AuditNetswapDegrade, "dom", "", 0, "budget")
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"net.degrade"`) {
		t.Fatalf("WriteJSON missing audit log:\n%s", buf.String())
	}
}
