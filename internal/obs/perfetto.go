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
	// Machines lists the per-machine lanes of a merged cluster dump, in
	// merge order; empty for a single-machine dump. When set, WriteTrace
	// renders one Perfetto process per machine with flow arrows linking
	// client net.out hops to server-side service slices.
	Machines []string
	Tracks   []TrackDump
	Spans    []SpanDump
	Audit    []AuditEvent
}

// TrackDump is one recorded series, values aligned with TimesNs, the
// sample instants of the machine that recorded it (one slice shared by all
// of that machine's tracks).
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
	if tl.Rec != nil {
		var times []int64
		for _, at := range tl.Rec.Times() {
			times = append(times, int64(at))
		}
		for _, t := range tl.Rec.Tracks() {
			d.Tracks = append(d.Tracks, TrackDump{
				Group:   t.Group,
				Name:    t.Name,
				Domain:  t.Domain,
				Unit:    t.Unit,
				Rate:    t.Rate,
				TimesNs: times,
				Values:  tl.Rec.Values(t),
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

// MachineTimeline names one machine's timeline dump for merging.
type MachineTimeline struct {
	Machine string
	Dump    *TimelineDump
}

// MergeTimelines folds per-machine dumps into one cluster dump: every
// track, span and audit event is stamped with its machine lane, and tracks
// keep their own sample instants (machines sample on their own clocks).
// Merge order is the lane order of the rendered trace, so callers pass
// machines in a canonical order.
func MergeTimelines(parts []MachineTimeline) *TimelineDump {
	m := &TimelineDump{}
	for _, p := range parts {
		m.Machines = append(m.Machines, p.Machine)
		d := p.Dump
		if d == nil {
			continue
		}
		for _, t := range d.Tracks {
			t.Machine = p.Machine
			m.Tracks = append(m.Tracks, t)
		}
		for _, s := range d.Spans {
			s.Machine = p.Machine
			m.Spans = append(m.Spans, s)
		}
		for _, e := range d.Audit {
			e.Machine = p.Machine
			m.Audit = append(m.Audit, e)
		}
	}
	return m
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

// WriteTrace renders the dump as Chrome trace-event JSON, loadable in
// ui.perfetto.dev. Fault spans become complete-event slices with nested
// hop slices, recorder series counter tracks (grouped tracks share one
// multi-series counter), and audit events instants. The dump picks the
// layout. A single machine's dump renders one process per domain (plus a
// "system" process) and lanes each span by its faulting thread. A merged
// cluster dump (Machines set) renders one process per machine lane, lanes
// client spans by domain and service spans by server worker, and draws
// flow arrows (s/t/f events bound to enclosing slices) from each client's
// net.out hop to the service slices that answered it.
func (d *TimelineDump) WriteTrace(w io.Writer) error {
	merged := len(d.Machines) > 0
	// Processes: a domain on one machine, a machine lane in a merged dump.
	// Pids follow first appearance: the declared processes ("system" is
	// pid 1 on one machine), then tracks, spans and audit events.
	proc := func(machine, domain string) string {
		if merged {
			return machine
		}
		return domain
	}
	unnamed, declared := "system", []string{""}
	if merged {
		unnamed, declared = "cluster", d.Machines
	}
	pids := map[string]int{}
	var order []string
	pidOf := func(p string) {
		if _, ok := pids[p]; !ok {
			pids[p] = len(pids) + 1
			order = append(order, p)
		}
	}
	for _, p := range declared {
		pidOf(p)
	}
	for _, t := range d.Tracks {
		pidOf(proc(t.Machine, t.Domain))
	}
	for _, s := range d.Spans {
		pidOf(proc(s.Machine, s.Domain))
	}
	for _, e := range d.Audit {
		pidOf(proc(e.Machine, e.Domain))
	}

	// Thread lanes within each process: tid 1 is the events lane; span
	// lanes follow in first-appearance order. One machine lanes a span by
	// its faulting thread; a merged dump lanes service spans by server
	// worker and client spans by domain.
	laneOf := func(s SpanDump) string {
		lane := s.Thread
		if merged && (s.Class != "service" || s.Thread == "") {
			lane = s.Domain
		}
		if lane == "" {
			lane = "faults"
		}
		return lane
	}
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

	// Flows (merged dumps): a flow draws an arrow once both ends appear,
	// its client span (the first non-service span with a net.out hop) and
	// at least one service span echoing it.
	flowFrom, flowTo := map[uint64]int{}, map[uint64]int{}
	for i, s := range d.Spans {
		if !merged || s.Flow == 0 {
			continue
		}
		if s.Class == "service" {
			flowTo[s.Flow] = i // the last answer finishes the arrow
			continue
		}
		if _, ok := flowFrom[s.Flow]; !ok && netOut(s) != nil {
			flowFrom[s.Flow] = i
		}
	}

	// Every event goes out through emit; the first error stops the
	// output, and bufio keeps a write error for Flush.
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[`)
	var err error
	sep := "\n"
	emit := func(ev traceEvent) {
		if err != nil {
			return
		}
		var b []byte
		if b, err = json.Marshal(ev); err == nil {
			bw.WriteString(sep)
			bw.Write(b)
			sep = ",\n"
		}
	}

	// Metadata: process names in pid order.
	for _, p := range order {
		name := p
		if name == "" {
			name = unnamed
		}
		emit(traceEvent{Name: "process_name", Ph: "M", Pid: pids[p], Args: map[string]any{"name": name}})
		emit(traceEvent{Name: "process_sort_index", Ph: "M", Pid: pids[p], Args: map[string]any{"sort_index": pids[p]}})
	}

	// Counter tracks: grouped series merge into one counter per process
	// and domain (a merged dump names it domain/group); samples in time
	// order per counter, counters in track order.
	type counterKey struct{ proc, domain, name string }
	var ckeys []counterKey
	groups := map[counterKey][]TrackDump{}
	for _, t := range d.Tracks {
		name := t.Group
		if name == "" {
			name = t.Name
		}
		if merged && t.Domain != "" {
			name = t.Domain + "/" + name
		}
		k := counterKey{proc(t.Machine, t.Domain), t.Domain, name}
		if _, ok := groups[k]; !ok {
			ckeys = append(ckeys, k)
		}
		groups[k] = append(groups[k], t)
	}
	for _, k := range ckeys {
		tracks := groups[k]
		for i, at := range tracks[0].TimesNs {
			args := make(map[string]any, len(tracks))
			for _, t := range tracks {
				if i < len(t.Values) {
					args[t.Name] = t.Values[i]
				}
			}
			emit(traceEvent{Name: k.name, Ph: "C", Ts: usec(at), Pid: pids[k.proc], Args: args})
		}
	}

	// Spans: a slice for the whole span, then one nested slice per hop,
	// then any flow event, anchored to the slice it binds to, so the
	// emission order is a deterministic function of the dump alone.
	for i, s := range d.Spans {
		pid := pids[proc(s.Machine, s.Domain)]
		tid := tidOf(pid, laneOf(s))
		name := "fault:" + s.Class
		args := map[string]any{"outcome": s.Outcome, "thread": s.Thread}
		if merged && s.Class == "service" {
			name = "service"
			args["client"] = s.Domain
		}
		if merged && s.Flow != 0 {
			args["flow"] = s.Flow
		}
		dur := usec(s.EndNs - s.StartNs)
		emit(traceEvent{Name: name, Ph: "X", Ts: usec(s.StartNs), Dur: &dur, Pid: pid, Tid: tid, Cat: "fault", Args: args})
		for _, h := range s.Hops {
			hdur := usec(h.EndNs - h.StartNs)
			emit(traceEvent{Name: h.Name, Ph: "X", Ts: usec(h.StartNs), Dur: &hdur, Pid: pid, Tid: tid, Cat: "hop"})
		}
		from, ok := flowFrom[s.Flow]
		last, answered := flowTo[s.Flow]
		if !ok || !answered {
			continue
		}
		// The arrow starts inside the client's net.out hop slice, steps
		// through every answer but the last (a batched write is one client
		// hop answered by several server RPCs) and finishes on the last,
		// bound to the enclosing service slice.
		id := s.Flow
		ev := traceEvent{Name: "netswap", Ph: "t", Ts: usec(s.StartNs), Pid: pid, Tid: tid, Cat: "flow", ID: &id}
		switch i {
		case from:
			ev.Ph, ev.Ts = "s", usec(netOut(s).StartNs)
		case last:
			ev.Ph, ev.Bp = "f", "e"
		}
		emit(ev)
	}

	// Audit log: instants on the owning process's events lane. One
	// machine's system events are global; a merged dump names the domain.
	for _, e := range d.Audit {
		scope := "p"
		args := map[string]any{}
		if !merged && e.Domain == "" {
			scope = "g"
		}
		if merged && e.Domain != "" {
			args["domain"] = e.Domain
		}
		if e.Other != "" {
			args["other"] = e.Other
		}
		if e.Frames != 0 {
			args["frames"] = e.Frames
		}
		if e.Detail != "" {
			args["detail"] = e.Detail
		}
		emit(traceEvent{Name: string(e.Kind), Ph: "i", Ts: usec(e.At), Pid: pids[proc(e.Machine, e.Domain)], Tid: 1,
			S: scope, Cat: "audit", Args: args})
	}

	// Thread-name metadata last: tids are known only after span emission.
	// Span lanes are named in span order, each (pid, tid) once.
	for _, p := range order {
		emit(traceEvent{Name: "thread_name", Ph: "M", Pid: pids[p], Tid: 1, Args: map[string]any{"name": "events"}})
	}
	named := map[threadKey]bool{}
	for _, s := range d.Spans {
		k := threadKey{pids[proc(s.Machine, s.Domain)], laneOf(s)}
		if !named[k] {
			named[k] = true
			emit(traceEvent{Name: "thread_name", Ph: "M", Pid: k.pid, Tid: tids[k], Args: map[string]any{"name": k.nm}})
		}
	}

	if err != nil {
		return err
	}
	bw.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n")
	return bw.Flush()
}

// netOut returns a span's first net.out hop, or nil.
func netOut(s SpanDump) *HopDump {
	for i := range s.Hops {
		if s.Hops[i].Name == "net.out" {
			return &s.Hops[i]
		}
	}
	return nil
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
