// Package trace collects the structured logs the paper's figures are built
// from: USD scheduler traces (Figs. 7–8 bottom), bandwidth progress series
// (Figs. 7–9 top), and summary statistics. Rendering is plain TSV so the
// output of the cmd/ tools can be dropped straight into a plotting pipeline.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"nemesis/internal/sim"
)

// EventKind classifies a scheduler trace record.
type EventKind uint8

const (
	// Transaction records one disk transaction performed on behalf of a
	// client; Start..End spans the transaction (the filled boxes in the
	// paper's trace plots).
	Transaction EventKind = iota
	// Lax records time a client spent on the runnable queue with no work
	// pending that was nonetheless charged to it (the solid lines between
	// transactions in the paper's plots).
	Lax
	// Allocation records a period boundary at which the client received a
	// fresh slice allocation (the small arrows in the paper's plots).
	Allocation
	// Slack records transaction time granted out of schedule slack to an
	// x=true client (optimistic time, not charged against the guarantee).
	Slack
)

func (k EventKind) String() string {
	switch k {
	case Transaction:
		return "txn"
	case Lax:
		return "lax"
	case Allocation:
		return "alloc"
	case Slack:
		return "slack"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// Event is one scheduler trace record.
type Event struct {
	Kind   EventKind
	Client string
	Start  sim.Time
	End    sim.Time // == Start for instantaneous records (Allocation)
}

// chunkLen is the number of records in one chunk of a Log.
const chunkLen = 1024

// record is one Event as a Log stores it: 24 bytes and pointer-free, the
// client being an index into the log's name table, so the garbage collector
// never scans a chunk.
type record struct {
	start, end sim.Time
	client     uint32
	kind       EventKind
}

// Log accumulates scheduler events. The zero value is ready to use; a nil
// *Log discards everything, so instrumented code does not need nil checks.
//
// Records live in fixed chunks of chunkLen that are never reallocated, so a
// growing trace allocates one chunk at a time instead of re-copying itself.
type Log struct {
	chunks []*[chunkLen]record
	n      int // records stored

	names []string          // client names, in order of first sight
	index map[string]uint32 // name → position in names
	last  uint32            // client of the most recent record
}

// Add appends an event. Safe on a nil receiver.
func (l *Log) Add(e Event) {
	if l == nil {
		return
	}
	// Consecutive records usually share a client; only a change hashes.
	if len(l.names) == 0 || l.names[l.last] != e.Client {
		l.last = l.intern(e.Client)
	}
	i := l.n % chunkLen
	if i == 0 {
		l.chunks = append(l.chunks, new([chunkLen]record))
	}
	l.chunks[len(l.chunks)-1][i] = record{start: e.Start, end: e.End, client: l.last, kind: e.Kind}
	l.n++
}

// intern returns name's index in the name table, adding it if new.
func (l *Log) intern(name string) uint32 {
	if ci, ok := l.index[name]; ok {
		return ci
	}
	if l.index == nil {
		l.index = make(map[string]uint32)
	}
	ci := uint32(len(l.names))
	l.names = append(l.names, name)
	l.index[name] = ci
	return ci
}

// each calls fn on every record in insertion order. Every chunk but the
// last is full, and the last holds at least one record.
func (l *Log) each(fn func(r *record)) {
	if l == nil {
		return
	}
	for i, ch := range l.chunks {
		c := ch[:]
		if i == len(l.chunks)-1 {
			c = c[:l.n-i*chunkLen]
		}
		for j := range c {
			fn(&c[j])
		}
	}
}

func (l *Log) event(r *record) Event {
	return Event{Kind: r.kind, Client: l.names[r.client], Start: r.start, End: r.end}
}

// Events returns a fresh copy of the recorded events in insertion order.
func (l *Log) Events() []Event {
	if l == nil || l.n == 0 {
		return nil
	}
	out := make([]Event, 0, l.n)
	l.each(func(r *record) { out = append(out, l.event(r)) })
	return out
}

// Between returns events overlapping [from, to). An event that merely
// ended at the window's start does not overlap it; an instantaneous event
// (Start == End, e.g. an Allocation) landing exactly on from does.
func (l *Log) Between(from, to sim.Time) []Event {
	var out []Event
	l.each(func(r *record) {
		if (r.end > from || r.start >= from) && r.start < to {
			out = append(out, l.event(r))
		}
	})
	return out
}

// ByClient returns events for one client in insertion order.
func (l *Log) ByClient(name string) []Event {
	if l == nil {
		return nil
	}
	ci, ok := l.index[name]
	if !ok {
		return nil
	}
	var out []Event
	l.each(func(r *record) {
		if r.client == ci {
			out = append(out, l.event(r))
		}
	})
	return out
}

// clip returns r's span clipped to [from, to), and whether it is non-empty.
func (r *record) clip(from, to sim.Time) (time.Duration, bool) {
	s, t := r.start, r.end
	if s < from {
		s = from
	}
	if t > to {
		t = to
	}
	return t.Sub(s), t > s
}

// perClient turns per-client-index values into a map by name, keeping only
// the positive ones.
func (l *Log) perClient(v []float64) map[string]float64 {
	out := make(map[string]float64)
	for ci, x := range v {
		if x > 0 {
			out[l.names[ci]] = x
		}
	}
	return out
}

// TotalBusy sums transaction time per client over [from, to), clipping
// events at the window edges.
func (l *Log) TotalBusy(from, to sim.Time) map[string]float64 {
	if l == nil {
		return make(map[string]float64)
	}
	busy := make([]float64, len(l.names))
	l.each(func(r *record) {
		if r.kind != Transaction && r.kind != Slack {
			return
		}
		if d, ok := r.clip(from, to); ok {
			busy[r.client] += d.Seconds()
		}
	})
	return l.perClient(busy)
}

// MaxLax returns the longest single lax charge per client, in seconds. The
// paper's invariant is that no lax line exceeds the client's l parameter.
func (l *Log) MaxLax() map[string]float64 {
	if l == nil {
		return make(map[string]float64)
	}
	longest := make([]float64, len(l.names))
	l.each(func(r *record) {
		if d := r.end.Sub(r.start).Seconds(); r.kind == Lax && d > longest[r.client] {
			longest[r.client] = d
		}
	})
	return l.perClient(longest)
}

// GuaranteeViolation reports a window in which a client's charged time
// deterministically exceeded its contract.
type GuaranteeViolation struct {
	Client  string
	Window  sim.Time // window start
	Busy    float64  // seconds charged in the window
	Allowed float64  // slice plus roll-over slop, seconds
}

// ValidateGuarantees checks the Atropos invariant over a scheduler trace:
// within every aligned window of length period, each client's charged time
// (transactions plus lax; slack excluded) must not exceed its slice by more
// than slop — the one roll-over transaction the accounting permits. It
// returns all violations found, by client name and then window. The windows
// start at 0 and before until; a non-positive period has none.
//
// One pass over the log adds each record's clipped span to the windows it
// overlaps, so every (client, window) sum accumulates in record order.
func (l *Log) ValidateGuarantees(slices map[string]time.Duration, period, slop time.Duration, until sim.Time) []GuaranteeViolation {
	if l == nil || period <= 0 || until <= 0 {
		return nil
	}
	p := sim.Time(period)
	windows := int((until-1)/p) + 1
	clients := make([]string, 0, len(slices))
	for name := range slices {
		clients = append(clients, name)
	}
	sort.Strings(clients)
	// row maps a log client index to its first cell in busy, or -1.
	row := make([]int, len(l.names))
	for ci := range row {
		row[ci] = -1
	}
	for k, name := range clients {
		if ci, ok := l.index[name]; ok {
			row[ci] = k * windows
		}
	}
	busy := make([]float64, len(clients)*windows)
	l.each(func(r *record) {
		if (r.kind != Transaction && r.kind != Lax) || row[r.client] < 0 {
			return
		}
		first, last := 0, min(int((r.end-1)/p), windows-1)
		if r.start > 0 {
			first = int(r.start / p)
		}
		for w := first; w <= last; w++ {
			if d, ok := r.clip(sim.Time(w)*p, sim.Time(w+1)*p); ok {
				busy[row[r.client]+w] += d.Seconds()
			}
		}
	})
	var out []GuaranteeViolation
	for k, name := range clients {
		allowed := (slices[name] + slop).Seconds()
		for w, b := range busy[k*windows : (k+1)*windows] {
			if b > allowed {
				out = append(out, GuaranteeViolation{Client: name, Window: sim.Time(w) * p, Busy: b, Allowed: allowed})
			}
		}
	}
	return out
}

// WriteTSV renders the log as tab-separated values: kind, client, start_ms,
// end_ms, duration_ms.
func (l *Log) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "kind\tclient\tstart_ms\tend_ms\tdur_ms"); err != nil {
		return err
	}
	var err error
	l.each(func(r *record) {
		if err == nil {
			_, err = fmt.Fprintf(w, "%s\t%s\t%.3f\t%.3f\t%.3f\n",
				r.kind, l.names[r.client], r.start.Milliseconds(), r.end.Milliseconds(),
				r.end.Sub(r.start).Seconds()*1e3)
		}
	})
	return err
}

// Point is one sample of a progress series.
type Point struct {
	T     sim.Time
	Value float64
}

// Series is a named sequence of samples, e.g. sustained bandwidth of one
// application over time.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(t sim.Time, v float64) { s.Points = append(s.Points, Point{t, v}) }

// Last returns the most recent sample value, or 0 if empty.
func (s *Series) Last() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].Value
}

// Mean returns the mean of all sample values, or 0 if empty.
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.Value
	}
	return sum / float64(len(s.Points))
}

// MeanAfter returns the mean of samples at or after t — useful for skipping
// a warm-up transient.
func (s *Series) MeanAfter(t sim.Time) float64 {
	sum, n := 0.0, 0
	for _, p := range s.Points {
		if p.T >= t {
			sum += p.Value
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// SeriesSet groups several series sampled on a common schedule.
type SeriesSet struct {
	Series []*Series
}

// New adds and returns a fresh named series.
func (ss *SeriesSet) New(name string) *Series {
	s := &Series{Name: name}
	ss.Series = append(ss.Series, s)
	return s
}

// Get returns the series with the given name, or nil.
func (ss *SeriesSet) Get(name string) *Series {
	for _, s := range ss.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// WriteTSV renders all series as a wide table: time_s followed by one column
// per series. Sample times are unioned; missing samples render as blanks.
func (ss *SeriesSet) WriteTSV(w io.Writer) error {
	times := map[sim.Time]bool{}
	for _, s := range ss.Series {
		for _, p := range s.Points {
			times[p.T] = true
		}
	}
	sorted := make([]sim.Time, 0, len(times))
	for t := range times {
		sorted = append(sorted, t)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	header := []string{"time_s"}
	for _, s := range ss.Series {
		header = append(header, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, "\t")); err != nil {
		return err
	}
	idx := make([]int, len(ss.Series))
	for _, t := range sorted {
		row := []string{fmt.Sprintf("%.2f", t.Seconds())}
		for i, s := range ss.Series {
			cell := ""
			if idx[i] < len(s.Points) && s.Points[idx[i]].T == t {
				cell = fmt.Sprintf("%.4f", s.Points[idx[i]].Value)
				idx[i]++
			}
			row = append(row, cell)
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return nil
}
