package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the names a CPU sample can be charged to: one per simulator
// package, plus the Go runtime's proc handoff and GC, the fork copy code,
// the HTTP stack, this program, and other.
var layers = []string{
	"handoff", "sim", "stretchdrv", "usd", "sfs", "disk", "vm", "fault",
	"domain", "workload", "trace", "atropos", "cpu", "mem", "gc", "obs",
	"netswap", "fork", "core", "experiments", "serve", "http", "client", "other",
}

// frame is one function in a sampled stack.
type frame struct{ fn, file string }

// cpuProfile is the part of a runtime/pprof CPU profile the fold reads:
// each sample's stack, leaf first, and the CPU time it stands for.
type cpuProfile struct {
	stacks [][]frame
	ns     []int64
}

// fold charges every sample to one layer and returns CPU nanoseconds per
// layer. Every sample lands in exactly one layer, so the layers sum to the
// profile's total.
func (p *cpuProfile) fold() map[string]int64 {
	out := map[string]int64{}
	for i, st := range p.stacks {
		out[layerOf(st)] += p.ns[i]
	}
	return out
}

// layerOf charges one stack, leaf first, to a layer. Walking from the
// leaf, the first frame that names a layer wins:
//
//   - runtime frames that park, wake or schedule goroutines, or idle the
//     scheduler, are handoff; GC, sweeping and malloc frames are gc. Other
//     runtime frames (memmove, map operations, …) pass the sample on to
//     their caller;
//   - a nemesis/internal frame from a fork.go or core/snapshot.go file is
//     fork; any other is its top-level package, or other for a package
//     without a layer of its own;
//   - a serve frame reached through net/http, net, encoding/json or crypto
//     frames is http: that is the HTTP and hashing work under the handler;
//   - a main frame is client, the load generator and output checks.
//
// A stack with no such frame is http when it holds HTTP stack frames (the
// connection goroutines) and other otherwise.
func layerOf(stack []frame) string {
	sawHTTP := false
	for _, f := range stack {
		if rt, ok := strings.CutPrefix(f.fn, "runtime."); ok {
			switch {
			case handoffFrames[rt]:
				return "handoff"
			case isGCFrame(rt):
				return "gc"
			}
			continue
		}
		if rest, ok := strings.CutPrefix(f.fn, "nemesis/internal/"); ok {
			if strings.HasSuffix(f.file, "/fork.go") || strings.HasSuffix(f.file, "/core/snapshot.go") {
				return "fork"
			}
			pkg := rest[:strings.IndexAny(rest+".", "/.")]
			if pkg == "serve" && sawHTTP {
				return "http"
			}
			for _, l := range layers {
				if l == pkg {
					return pkg
				}
			}
			return "other"
		}
		if strings.HasPrefix(f.fn, "main.") {
			return "client"
		}
		if isHTTPFrame(f.fn) {
			sawHTTP = true
		}
	}
	if sawHTTP {
		return "http"
	}
	return "other"
}

// handoffFrames are the runtime functions that hand the CPU from one
// goroutine to another: channel operations, park and ready, the scheduler
// loop, and the idle M's sleep and wake.
var handoffFrames = map[string]bool{
	"gopark": true, "goparkunlock": true, "park_m": true, "goready": true, "ready": true,
	"schedule": true, "findRunnable": true, "execute": true, "gogo": true, "mcall": true,
	"stopm": true, "startm": true, "mPark": true, "wakep": true, "handoffp": true,
	"acquirep": true, "releasep": true, "resetspinning": true, "stealWork": true,
	"runqput": true, "runqget": true, "runqgrab": true, "runqsteal": true,
	"notesleep": true, "notetsleep": true, "notetsleepg": true, "notewakeup": true,
	"futex": true, "futexsleep": true, "futexwakeup": true, "usleep": true, "osyield": true,
	"netpoll": true, "sysmon": true, "checkTimers": true,
	"chansend": true, "chansend1": true, "chanrecv": true, "chanrecv1": true, "chanrecv2": true,
	"send": true, "recv": true, "selectgo": true, "block": true,
	"Gosched": true, "gosched_m": true, "goschedImpl": true, "goyield": true, "goyield_m": true,
}

// gcPrefixes open the names of the runtime's collector, sweeper,
// scavenger, write barrier and allocator functions.
var gcPrefixes = []string{
	"gc", "mallocgc", "newobject", "newarray", "nextFreeFast", "heapSetType",
	"(*mspan)", "(*mheap)", "(*mcache)", "(*mcentral)", "(*gcWork)", "(*gcControllerState)",
	"(*gcCPULimiterState)", "(*pageAlloc)", "(*scavengerState)", "(*sweepLocked)", "(*sweepLocker)",
	"(*markBits)", "(*typePointers)", "scanobject", "scanblock", "scanstack", "scanframeworker",
	"scanConservative", "markroot", "greyobject", "findObject", "wbBuf", "bulkBarrier",
	"bgsweep", "bgscavenge", "sweepone", "deductSweepCredit", "deductAssistCredit",
	"stopTheWorld", "startTheWorld", "finishsweep_m", "typePointersOf",
}

func isGCFrame(rt string) bool {
	for _, p := range gcPrefixes {
		if strings.HasPrefix(rt, p) {
			return true
		}
	}
	return false
}

// httpPackages are the standard-library packages of the HTTP path: the
// server and client stacks, JSON coding, and hashing.
var httpPackages = []string{
	"net/http.", "net.", "net/textproto.", "net/url.", "mime.", "bufio.", "internal/poll.",
	"syscall.", "encoding/json.", "encoding/hex.", "crypto/",
}

func isHTTPFrame(fn string) bool {
	for _, p := range httpPackages {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// parseProfile decodes a gzipped pprof protobuf as runtime/pprof writes it
// (github.com/google/pprof/proto/profile.proto), keeping the "cpu" value
// of each sample and its stack of inlined-expanded frames.
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type fnRec struct{ name, file int64 }
	var (
		strs     []string
		valTypes []int64 // string index of each sample type
		samples  []struct {
			locs []uint64
			vals []int64
		}
		locs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs = map[uint64]fnRec{}
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					valTypes = append(valTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s struct {
				locs []uint64
				vals []int64
			}
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return repeated(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(v, b, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var f fnRec
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			funcs[id] = f
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding the profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	cpuIdx := -1
	for i, t := range valTypes {
		if str(t) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("the profile has no cpu sample type")
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if cpuIdx >= len(s.vals) {
			return nil, errors.New("a sample lacks its cpu value")
		}
		var st []frame
		for _, l := range s.locs {
			for _, id := range locs[l] {
				f := funcs[id]
				st = append(st, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		p.stacks = append(p.stacks, st)
		p.ns = append(p.ns, s.vals[cpuIdx])
	}
	return p, nil
}

// eachField calls fn for every field of a protobuf message: v carries a
// varint or fixed-width value, b a length-delimited payload.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length-delimited field")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes one occurrence of a repeated varint field, which the
// encoder writes either unpacked (v) or packed (b).
func repeated(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
