package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

// pb appends protobuf fields, enough to write a synthetic pprof profile.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(num int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(num int, vs ...uint64) {
	var in []byte
	for _, v := range vs {
		in = binary.AppendUvarint(in, v)
	}
	p.bytes(num, in)
}

// synthSample is one sample of the synthetic profile: its stack, leaf
// first, the CPU it stands for, and the layer the fold must charge.
type synthSample struct {
	stack []frame
	ns    int64
	want  string
}

func f(fn string) frame        { return frame{fn: fn, file: "x.go"} }
func ff(fn, file string) frame { return frame{fn: fn, file: file} }
func sample(ns int64, want string, fr ...frame) synthSample {
	return synthSample{stack: fr, ns: ns, want: want}
}

var synthetic = []synthSample{
	// memmove and map operations are charged to their caller.
	sample(10, "sim", f("runtime.memmove"), f("nemesis/internal/sim.(*Queue).Push"), f("nemesis/internal/core.Run")),
	sample(20, "vm", f("internal/runtime/maps.(*Map).getWithKeySmall"), f("runtime.mapaccess2_fast64"),
		f("nemesis/internal/vm.(*Space).Access"), f("nemesis/internal/fault.Handle")),
	// A subpackage belongs to its top-level package.
	sample(30, "experiments", f("nemesis/internal/experiments/sweep.MapWorkersContext"), f("runtime.goexit")),
	// Fork copy code is fork whatever its package.
	sample(40, "fork", f("runtime.memmove"), ff("nemesis/internal/mem.(*Frames).Fork", "/r/internal/mem/fork.go"),
		ff("nemesis/internal/core.(*System).Fork", "/r/internal/core/snapshot.go")),
	sample(50, "fork", ff("nemesis/internal/core.(*System).Fork", "/r/internal/core/snapshot.go"), f("nemesis/internal/experiments.runFigureSpec")),
	// Park, wake and idle scheduling are handoff.
	sample(60, "handoff", f("runtime.futex"), f("runtime.futexsleep"), f("runtime.notesleep"), f("runtime.mPark"),
		f("runtime.stopm"), f("runtime.findRunnable"), f("runtime.schedule"), f("runtime.park_m"), f("runtime.mcall")),
	sample(70, "handoff", f("runtime.lock2"), f("runtime.chansend"), f("runtime.chansend1"), f("nemesis/internal/sim.(*Proc).dispatch")),
	// GC and malloc are gc, even under a simulator frame.
	sample(80, "gc", f("runtime.scanobject"), f("runtime.gcDrain"), f("runtime.gcBgMarkWorker.func2"),
		f("runtime.systemstack"), f("runtime.gcBgMarkWorker"), f("runtime.goexit")),
	sample(90, "gc", f("runtime.memclrNoHeapPointers"), f("runtime.mallocgc"), f("runtime.growslice"),
		f("nemesis/internal/atropos.(*Core).Pick")),
	// JSON and hashing under the serve handler are http; under the
	// experiments encoder they stay experiments.
	sample(100, "http", f("encoding/json.(*encodeState).marshal"), f("encoding/json.Marshal"),
		f("nemesis/internal/serve.CanonicalJSON"), f("nemesis/internal/serve.(*Server).handleRun"), f("net/http.(*conn).serve")),
	sample(110, "experiments", f("encoding/json.MarshalIndent"), f("nemesis/internal/experiments.EncodeResult"),
		f("nemesis/internal/serve.(*Server).runJob")),
	sample(120, "serve", f("nemesis/internal/serve.(*Cache).Get"), f("nemesis/internal/serve.(*Server).Submit"),
		f("net/http.(*conn).serve")),
	// The connection goroutines are http.
	sample(130, "http", f("syscall.Syscall"), f("internal/poll.(*FD).Read"), f("net.(*conn).Read"),
		f("net/http.(*connReader).Read"), f("bufio.(*Reader).fill"), f("net/http.(*conn).serve")),
	// This program is client, hashing included.
	sample(140, "client", f("crypto/sha256.block"), f("crypto/sha256.Sum256"), f("main.digest"), f("main.(*simRun).run")),
	// A package without a layer, and the profiler's own goroutine, are other.
	sample(150, "other", f("nemesis/internal/baseline.Run")),
	sample(160, "other", f("runtime/pprof.(*profileBuilder).addCPUData"), f("runtime/pprof.profileWriter")),
}

func TestLayerOf(t *testing.T) {
	for _, s := range synthetic {
		if got := layerOf(s.stack); got != s.want {
			t.Errorf("layerOf(%v) = %s, want %s", s.stack, got, s.want)
		}
	}
}

// encodeProfile writes the samples as a gzipped pprof protobuf, the way
// runtime/pprof does: a string table, functions, one location per frame
// (the first two frames of the first sample share a location, as inlined
// calls do), and samples with packed locations except the last.
func encodeProfile(t *testing.T, samples []synthSample) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	idx := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var p pb
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pb
		m.varint(1, idx(vt[0]))
		m.varint(2, idx(vt[1]))
		p.bytes(1, m.b)
	}
	funcs := map[frame]uint64{}
	var nextLoc uint64
	for si, s := range samples {
		var locs []uint64
		for i := 0; i < len(s.stack); i++ {
			fns := []frame{s.stack[i]}
			if si == 0 && i == 0 && len(s.stack) > 1 {
				fns = append(fns, s.stack[1]) // inlined: innermost first
				i++
			}
			nextLoc++
			var loc pb
			loc.varint(1, nextLoc)
			for _, fr := range fns {
				id, ok := funcs[fr]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fr] = id
					var fn pb
					fn.varint(1, id)
					fn.varint(2, idx(fr.fn))
					fn.varint(4, idx(fr.file))
					p.bytes(5, fn.b)
				}
				var ln pb
				ln.varint(1, id)
				loc.bytes(4, ln.b)
			}
			p.bytes(4, loc.b)
			locs = append(locs, nextLoc)
		}
		var sm pb
		if si == len(samples)-1 {
			for _, l := range locs {
				sm.varint(1, l)
			}
		} else {
			sm.packed(1, locs...)
		}
		sm.packed(2, 1, uint64(s.ns))
		p.bytes(2, sm.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParseAndFold(t *testing.T) {
	prof, err := parseProfile(encodeProfile(t, synthetic))
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.stacks) != len(synthetic) {
		t.Fatalf("parsed %d samples, want %d", len(prof.stacks), len(synthetic))
	}
	want := map[string]int64{}
	var total int64
	for i, s := range synthetic {
		if got := prof.stacks[i]; len(got) != len(s.stack) || got[0] != s.stack[0] || got[len(got)-1] != s.stack[len(s.stack)-1] {
			t.Errorf("sample %d: stack %v, want %v", i, got, s.stack)
		}
		want[s.want] += s.ns
		total += s.ns
	}
	got := prof.fold()
	var sum int64
	for l, ns := range got {
		sum += ns
		if ns != want[l] {
			t.Errorf("layer %s: %d ns, want %d", l, ns, want[l])
		}
	}
	if sum != total {
		t.Errorf("layers sum to %d ns, profile holds %d", sum, total)
	}
}

func TestParseRejectsNonCPU(t *testing.T) {
	var p pb
	p.bytes(6, []byte(""))
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(p.b)
	zw.Close()
	if _, err := parseProfile(buf.Bytes()); err == nil {
		t.Error("a profile without a cpu sample type parsed")
	}
}
