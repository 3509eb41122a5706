package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// TimelineDump is the neutral form of one run's timeline: the recorder's
// sampled series, the retained fault spans with their hop chains, and the
// QoS/revocation audit log. WriteTrace renders it as a Perfetto-loadable
// trace.
type TimelineDump struct {
	NowNs int64
	Times []int64 // shared sample instants
	// Machines lists the per-machine lanes of a merged cluster dump, in
	// merge order; empty for a single-machine dump. When set, WriteTrace
	// renders one Perfetto process per machine with flow arrows linking
	// client net.out hops to server-side service slices.
	Machines []string
	Tracks   []TrackDump
	Spans    []SpanDump
	Audit    []AuditEvent
}

// TrackDump is one recorded series, values aligned with TimelineDump.Times —
// or with the track's own TimesNs when set (merged dumps, where machines
// sample on their own clocks).
type TrackDump struct {
	Group   string
	Name    string
	Machine string
	Domain  string
	Unit    string
	Rate    bool
	TimesNs []int64
	Values  []float64
}

// SpanDump is one finished fault span. Machine is stamped by MergeTimelines;
// Flow carries the cross-machine flow ID linking a client fault span to the
// remote server's service span.
type SpanDump struct {
	Machine string
	Domain  string
	Class   string
	Thread  string
	Outcome string
	Flow    uint64
	StartNs int64
	EndNs   int64
	Hops    []HopDump
}

// HopDump is one hop of a span.
type HopDump struct {
	Name    string
	StartNs int64
	EndNs   int64
}

// Timeline pairs a registry with an (optional) recorder for export.
type Timeline struct {
	Reg *Registry
	Rec *Recorder
}

// Dump snapshots the timeline into its serialisable form. Span and sample
// data are copied, so the dump stays valid however the live system churns
// its rings afterwards.
func (tl Timeline) Dump() *TimelineDump {
	d := &TimelineDump{}
	if tl.Reg == nil {
		return d
	}
	d.NowNs = int64(tl.Reg.Now())
	if tl.Rec != nil {
		for _, at := range tl.Rec.Times() {
			d.Times = append(d.Times, int64(at))
		}
		for _, t := range tl.Rec.Tracks() {
			d.Tracks = append(d.Tracks, TrackDump{
				Group:  t.Group,
				Name:   t.Name,
				Domain: t.Domain,
				Unit:   t.Unit,
				Rate:   t.Rate,
				Values: tl.Rec.Values(t),
			})
		}
	}
	for _, s := range tl.Reg.Spans() {
		sd := SpanDump{
			Domain:  s.Domain,
			Class:   s.Class,
			Thread:  s.Thread,
			Outcome: s.Outcome,
			Flow:    s.Flow,
			StartNs: int64(s.Start),
			EndNs:   int64(s.End),
		}
		for _, h := range s.hops {
			sd.Hops = append(sd.Hops, HopDump{Name: h.Name, StartNs: int64(h.Start), EndNs: int64(h.End)})
		}
		d.Spans = append(d.Spans, sd)
	}
	d.Audit = append(d.Audit, tl.Reg.AuditLog()...)
	return d
}

// usec renders a microsecond timestamp with fixed three-decimal precision
// (exact at nanosecond resolution), keeping trace output byte-deterministic
// across encoders.
type usec int64 // nanoseconds

func (u usec) MarshalJSON() ([]byte, error) {
	b := strconv.AppendFloat(nil, float64(u)/1e3, 'f', 3, 64)
	return b, nil
}

// traceEvent is one Chrome trace-event object. Field order is fixed by the
// struct, map args are key-sorted by encoding/json: output is deterministic.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   usec           `json:"ts"`
	Dur  *usec          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	S    string         `json:"s,omitempty"`
	ID   *uint64        `json:"id,omitempty"` // flow-event binding ID
	Bp   string         `json:"bp,omitempty"` // flow binding point ("e": enclosing slice)
	Args map[string]any `json:"args,omitempty"`
}

// counterKey identifies one rendered counter track.
type counterKey struct {
	domain string
	name   string
}

// WriteTrace renders the dump as Chrome trace-event JSON, loadable in
// ui.perfetto.dev: one process per domain (plus a "system" process), fault
// spans as complete-event slices with nested hop slices on the faulting
// thread's lane, recorder series as counter tracks (grouped tracks share one
// multi-series counter), and audit events as instants.
func (d *TimelineDump) WriteTrace(w io.Writer) error {
	// Merged cluster dumps render machine process lanes with flow arrows.
	if len(d.Machines) > 0 {
		return d.WriteClusterTrace(w)
	}
	// Process ids: "system" is pid 1; domains follow in first-appearance
	// order across tracks, spans and audit events.
	pids := map[string]int{"": 1}
	var order []string
	pidOf := func(domain string) int {
		if pid, ok := pids[domain]; ok {
			return pid
		}
		pid := len(pids) + 1
		pids[domain] = pid
		order = append(order, domain)
		return pid
	}
	for _, t := range d.Tracks {
		pidOf(t.Domain)
	}
	for _, s := range d.Spans {
		pidOf(s.Domain)
	}
	for _, e := range d.Audit {
		pidOf(e.Domain)
	}

	// Thread ids within each process: tid 1 is the events lane; fault
	// threads follow in first-appearance order.
	type threadKey struct {
		pid int
		nm  string
	}
	tids := map[threadKey]int{}
	nextTid := map[int]int{}
	tidOf := func(pid int, name string) int {
		k := threadKey{pid, name}
		if tid, ok := tids[k]; ok {
			return tid
		}
		nextTid[pid]++
		tid := nextTid[pid] + 1 // events lane holds tid 1
		tids[k] = tid
		return tid
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(ev traceEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		if _, err := bw.WriteString("\n"); err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}

	// Metadata: process names in pid order.
	meta := func(pid int, name string) error {
		if err := emit(traceEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name}}); err != nil {
			return err
		}
		return emit(traceEvent{Name: "process_sort_index", Ph: "M", Pid: pid,
			Args: map[string]any{"sort_index": pid}})
	}
	if err := meta(1, "system"); err != nil {
		return err
	}
	for _, dom := range order {
		if err := meta(pids[dom], dom); err != nil {
			return err
		}
	}

	// Counter tracks: grouped series merge into one counter; samples in
	// time order per counter, counters in track-registration order.
	var ckeys []counterKey
	groups := map[counterKey][]TrackDump{}
	for _, t := range d.Tracks {
		name := t.Group
		if name == "" {
			name = t.Name
		}
		k := counterKey{t.Domain, name}
		if _, ok := groups[k]; !ok {
			ckeys = append(ckeys, k)
		}
		groups[k] = append(groups[k], t)
	}
	for _, k := range ckeys {
		tracks := groups[k]
		pid := pids[k.domain]
		for i, at := range d.Times {
			args := make(map[string]any, len(tracks))
			for _, t := range tracks {
				if i < len(t.Values) {
					args[t.Name] = t.Values[i]
				}
			}
			if err := emit(traceEvent{Name: k.name, Ph: "C", Ts: usec(at), Pid: pid, Args: args}); err != nil {
				return err
			}
		}
	}

	// Fault spans: a slice for the whole span, then one nested slice per
	// hop, all on the faulting thread's lane.
	for _, s := range d.Spans {
		pid := pids[s.Domain]
		lane := s.Thread
		if lane == "" {
			lane = "faults"
		}
		tid := tidOf(pid, lane)
		dur := usec(s.EndNs - s.StartNs)
		if err := emit(traceEvent{
			Name: "fault:" + s.Class, Ph: "X", Ts: usec(s.StartNs), Dur: &dur,
			Pid: pid, Tid: tid, Cat: "fault",
			Args: map[string]any{"outcome": s.Outcome, "thread": s.Thread},
		}); err != nil {
			return err
		}
		for _, h := range s.Hops {
			hdur := usec(h.EndNs - h.StartNs)
			if err := emit(traceEvent{
				Name: h.Name, Ph: "X", Ts: usec(h.StartNs), Dur: &hdur,
				Pid: pid, Tid: tid, Cat: "hop",
			}); err != nil {
				return err
			}
		}
	}

	// Audit log: instant events on the owning domain's events lane
	// (process-scoped), system events global.
	for _, e := range d.Audit {
		pid := pids[e.Domain]
		scope := "p"
		if e.Domain == "" {
			scope = "g"
		}
		args := map[string]any{}
		if e.Other != "" {
			args["other"] = e.Other
		}
		if e.Frames != 0 {
			args["frames"] = e.Frames
		}
		if e.Detail != "" {
			args["detail"] = e.Detail
		}
		if err := emit(traceEvent{
			Name: string(e.Kind), Ph: "i", Ts: usec(e.At), Pid: pid, Tid: 1,
			S: scope, Cat: "audit", Args: args,
		}); err != nil {
			return err
		}
	}

	// Thread-name metadata last: tids are known only after span emission.
	if err := emit(traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: 1,
		Args: map[string]any{"name": "events"}}); err != nil {
		return err
	}
	for _, dom := range order {
		pid := pids[dom]
		if err := emit(traceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: 1,
			Args: map[string]any{"name": "events"}}); err != nil {
			return err
		}
	}
	// Deterministic order for span lanes: re-walk spans, emitting each
	// (pid, tid) name once.
	named := map[threadKey]bool{}
	for _, s := range d.Spans {
		pid := pids[s.Domain]
		lane := s.Thread
		if lane == "" {
			lane = "faults"
		}
		k := threadKey{pid, lane}
		if named[k] {
			continue
		}
		named[k] = true
		if err := emit(traceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tids[k],
			Args: map[string]any{"name": lane}}); err != nil {
			return err
		}
	}

	if _, err := bw.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// ValidateTrace checks that r holds minimally well-formed trace-event JSON:
// a traceEvents array whose entries carry name, a known phase, pid, and (for
// non-metadata phases) a numeric ts; complete events must carry dur. This is
// the schema gate CI runs on exported timelines.
func ValidateTrace(r io.Reader) error {
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("trace: not valid JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("trace: traceEvents missing or empty")
	}
	validPh := map[string]bool{"M": true, "X": true, "C": true, "i": true, "I": true, "B": true, "E": true,
		"s": true, "t": true, "f": true}
	for i, ev := range doc.TraceEvents {
		if _, ok := ev["name"].(string); !ok {
			return fmt.Errorf("trace: event %d has no name", i)
		}
		ph, ok := ev["ph"].(string)
		if !ok || !validPh[ph] {
			return fmt.Errorf("trace: event %d has bad phase %v", i, ev["ph"])
		}
		if _, ok := ev["pid"].(float64); !ok {
			return fmt.Errorf("trace: event %d has no pid", i)
		}
		if ph == "M" {
			continue
		}
		if _, ok := ev["ts"].(float64); !ok {
			return fmt.Errorf("trace: event %d (%s) has no ts", i, ph)
		}
		if ph == "X" {
			if _, ok := ev["dur"].(float64); !ok {
				return fmt.Errorf("trace: event %d (X) has no dur", i)
			}
		}
		if ph == "s" || ph == "t" || ph == "f" {
			if _, ok := ev["id"]; !ok {
				return fmt.Errorf("trace: flow event %d (%s) has no id", i, ph)
			}
		}
	}
	return nil
}
