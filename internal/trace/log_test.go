package trace

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"nemesis/internal/sim"
)

// The flat reference: a Log kept as one []Event, the representation the
// chunked store replaced, with each reader written the obvious way.

func flatBetween(evs []Event, from, to sim.Time) []Event {
	var out []Event
	for _, e := range evs {
		if (e.End > from || e.Start >= from) && e.Start < to {
			out = append(out, e)
		}
	}
	return out
}

func flatByClient(evs []Event, name string) []Event {
	var out []Event
	for _, e := range evs {
		if e.Client == name {
			out = append(out, e)
		}
	}
	return out
}

func flatTotalBusy(evs []Event, from, to sim.Time) map[string]float64 {
	out := make(map[string]float64)
	for _, e := range evs {
		if e.Kind != Transaction && e.Kind != Slack {
			continue
		}
		s, t := max(e.Start, from), min(e.End, to)
		if t > s {
			out[e.Client] += t.Sub(s).Seconds()
		}
	}
	return out
}

func flatMaxLax(evs []Event) map[string]float64 {
	out := make(map[string]float64)
	for _, e := range evs {
		if d := e.End.Sub(e.Start).Seconds(); e.Kind == Lax && d > out[e.Client] {
			out[e.Client] = d
		}
	}
	return out
}

func flatWriteTSV(evs []Event) string {
	var b strings.Builder
	fmt.Fprintln(&b, "kind\tclient\tstart_ms\tend_ms\tdur_ms")
	for _, e := range evs {
		fmt.Fprintf(&b, "%s\t%s\t%.3f\t%.3f\t%.3f\n", e.Kind, e.Client,
			e.Start.Milliseconds(), e.End.Milliseconds(), e.End.Sub(e.Start).Seconds()*1e3)
	}
	return b.String()
}

// referenceValidateGuarantees is ValidateGuarantees as it was before the
// one-pass rewrite: the whole log re-walked for every (client, window)
// pair. Its output follows map order, so it is sorted by client here.
func referenceValidateGuarantees(evs []Event, slices map[string]time.Duration, period, slop time.Duration, until sim.Time) []GuaranteeViolation {
	var out []GuaranteeViolation
	for client, slice := range slices {
		allowed := (slice + slop).Seconds()
		for w := sim.Time(0); w < until; w = w.Add(period) {
			end := w.Add(period)
			busy := 0.0
			for _, e := range evs {
				if e.Client != client || (e.Kind != Transaction && e.Kind != Lax) {
					continue
				}
				s, t := e.Start, e.End
				if s < w {
					s = w
				}
				if t > end {
					t = end
				}
				if t > s {
					busy += t.Sub(s).Seconds()
				}
			}
			if busy > allowed {
				out = append(out, GuaranteeViolation{Client: client, Window: w, Busy: busy, Allowed: allowed})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Client < out[j].Client })
	return out
}

// synthetic returns n events over three interleaved clients, with runs of
// one client (so Add sees both a repeated and a changed client) and a
// fourth client first seen in the third chunk. Spans vary from instants to
// several 10 ms windows, and odd sub-millisecond lengths keep the float
// sums order-sensitive.
func synthetic(n int) []Event {
	clients := []string{"alpha", "beta", "gamma"}
	evs := make([]Event, n)
	at := sim.Time(0)
	for i := range evs {
		c := clients[(i/3+i%2)%3]
		if i >= 2*chunkLen && i%7 == 0 {
			c = "late"
		}
		kind := EventKind(i % 4)
		d := time.Duration(i%11) * 1370 * time.Microsecond
		if kind == Allocation {
			d = 0
		}
		evs[i] = Event{Kind: kind, Client: c, Start: at, End: at.Add(d)}
		at = at.Add(time.Duration(i%5) * 900 * time.Microsecond)
	}
	return evs
}

func build(evs []Event) *Log {
	l := &Log{}
	for _, e := range evs {
		l.Add(e)
	}
	return l
}

func TestRecordIsPointerFreeAndSmall(t *testing.T) {
	rt := reflect.TypeOf(record{})
	for i := 0; i < rt.NumField(); i++ {
		switch f := rt.Field(i); f.Type.Kind() {
		case reflect.Int64, reflect.Uint32, reflect.Uint8:
		default:
			t.Errorf("record.%s is a %s: the collector would scan every chunk", f.Name, f.Type.Kind())
		}
	}
	if got := unsafe.Sizeof(record{}); got != 24 {
		t.Errorf("record is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof([chunkLen]record{}); got != 24576 {
		t.Errorf("chunk is %d bytes, want 24576", got)
	}
}

// TestLogChunkBoundaries checks every reader against the flat reference at
// record counts on both sides of the chunk boundaries.
func TestLogChunkBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 7} {
		evs := synthetic(n)
		l := build(evs)
		if n == 0 {
			evs = nil
		}
		if got := l.Events(); !reflect.DeepEqual(got, evs) {
			t.Fatalf("n=%d: Events differ from the flat log", n)
		}
		end := sim.Time(0)
		if n > 0 {
			end = evs[n-1].End
		}
		for _, w := range [][2]sim.Time{{0, end + 1}, {end / 3, end / 2}, {end / 2, end / 2}, {ms(5), ms(5) + 1}} {
			if got, want := l.Between(w[0], w[1]), flatBetween(evs, w[0], w[1]); !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d: Between(%v, %v) = %d events, flat %d", n, w[0], w[1], len(got), len(want))
			}
			if got, want := l.TotalBusy(w[0], w[1]), flatTotalBusy(evs, w[0], w[1]); !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d: TotalBusy(%v, %v) = %v, flat %v", n, w[0], w[1], got, want)
			}
		}
		for _, c := range []string{"alpha", "beta", "gamma", "late", "nobody"} {
			if got, want := l.ByClient(c), flatByClient(evs, c); !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d: ByClient(%s) = %d events, flat %d", n, c, len(got), len(want))
			}
		}
		if got, want := l.MaxLax(), flatMaxLax(evs); !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: MaxLax = %v, flat %v", n, got, want)
		}
		slices := map[string]time.Duration{"alpha": 2 * time.Millisecond, "beta": 3 * time.Millisecond, "late": time.Millisecond}
		got := l.ValidateGuarantees(slices, 10*time.Millisecond, time.Millisecond, end)
		if want := referenceValidateGuarantees(evs, slices, 10*time.Millisecond, time.Millisecond, end); !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: ValidateGuarantees = %d violations, reference %d", n, len(got), len(want))
		}
		var tsv strings.Builder
		if err := l.WriteTSV(&tsv); err != nil {
			t.Fatal(err)
		}
		if tsv.String() != flatWriteTSV(evs) {
			t.Errorf("n=%d: WriteTSV bytes differ from the flat rendering", n)
		}
	}
}

// TestLogCloneIsIndependent adds different records, including a client
// new to each side, to a log and its clone: neither side sees the other's.
func TestLogCloneIsIndependent(t *testing.T) {
	base := synthetic(chunkLen + 500) // the tail chunk is part full
	orig := build(base)
	clone := orig.Clone()
	origMore := []Event{{Transaction, "alpha", ms(9000), ms(9001)}, {Lax, "only-orig", ms(9001), ms(9002)}}
	cloneMore := []Event{{Slack, "beta", ms(8000), ms(8005)}, {Allocation, "only-clone", ms(8005), ms(8005)}}
	for i := 0; i < chunkLen; i++ { // past the clone's chunk boundary too
		origMore = append(origMore, Event{Transaction, "gamma", ms(int64(10000 + i)), ms(int64(10000 + i))})
	}
	for _, e := range origMore {
		orig.Add(e)
	}
	for _, e := range cloneMore {
		clone.Add(e)
	}
	want := func(more []Event) []Event { return append(append([]Event(nil), base...), more...) }
	if !reflect.DeepEqual(orig.Events(), want(origMore)) {
		t.Error("the original log changed under its clone's adds")
	}
	if !reflect.DeepEqual(clone.Events(), want(cloneMore)) {
		t.Error("the clone changed under the original's adds")
	}
	if got := clone.ByClient("only-orig"); got != nil {
		t.Errorf("clone sees the original's new client: %v", got)
	}
	if got := orig.ByClient("only-clone"); got != nil {
		t.Errorf("original sees the clone's new client: %v", got)
	}
	var nilLog *Log
	if nilLog.Clone() != nil {
		t.Error("nil log cloned to a non-nil log")
	}
}

// TestLogAddDoesNotAllocate: once a client is known and its chunk exists,
// Add allocates nothing, whether the client repeats or changes. The
// measured run is 400 Adds inside one chunk, so even a cost amortized over
// many calls shows.
func TestLogAddDoesNotAllocate(t *testing.T) {
	var l Log
	l.Add(Event{Transaction, "a", 0, 1})
	l.Add(Event{Transaction, "b", 1, 2})
	i := 0
	allocs := testing.AllocsPerRun(1, func() { // a warm-up run, then one measured
		for j := 0; j < 400; j++ {
			c := "a"
			if i%3 == 0 {
				c = "b"
			}
			l.Add(Event{Transaction, c, sim.Time(i), sim.Time(i + 1)})
			i++
		}
	})
	if allocs != 0 {
		t.Errorf("400 steady-state Adds allocate %v times", allocs)
	}
	if l.n > chunkLen {
		t.Fatalf("the Adds crossed a chunk boundary (%d records)", l.n)
	}
}

// TestValidateGuaranteesMatchesReference compares the one-pass check with
// the old per-(client, window) walk on a log of four chunks whose records
// straddle window edges, with slices tight enough that many windows
// violate. The busy sums must be bit-identical, and a client absent from
// the log still has its (empty) windows checked.
func TestValidateGuaranteesMatchesReference(t *testing.T) {
	evs := synthetic(4*chunkLen - 3)
	l := build(evs)
	slices := map[string]time.Duration{
		"alpha":  time.Millisecond,
		"beta":   4 * time.Millisecond,
		"gamma":  500 * time.Microsecond,
		"late":   0,
		"absent": -time.Microsecond, // allowed < 0: every window violates
	}
	until := evs[len(evs)-1].End + 1
	for _, period := range []time.Duration{7 * time.Millisecond, 25 * time.Millisecond, 250 * time.Millisecond} {
		got := l.ValidateGuarantees(slices, period, 300*time.Microsecond, until)
		want := referenceValidateGuarantees(evs, slices, period, 300*time.Microsecond, until)
		if len(want) == 0 {
			t.Fatalf("period %v: the reference finds no violation; the test is vacuous", period)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("period %v: %d violations, reference %d", period, len(got), len(want))
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Errorf("first difference at %d: %+v, reference %+v", i, got[i], want[i])
					break
				}
			}
		}
	}
}
