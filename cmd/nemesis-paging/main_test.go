package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOutputFlagsNeedAWritingMode parses command lines as main does and
// checks which of them checkOutputs rejects: an output flag its mode never
// writes (the run would exit 0 and leave no file), and a -cells selection
// no suite run can make.
func TestOutputFlagsNeedAWritingMode(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-fig 9 -simprofile x.folded", "-simprofile is written only by -fig 7 or -fig 8 or -attribution, not by -fig 9"},
		{"-fig 9 -metrics", "-metrics is written only by -fig 7 or -fig 8, not by -fig 9"},
		{"-suite -timeline t.json", "-timeline is written only by -fig 7 or -fig 8 or -fig 9, not by -suite"},
		{"-cluster -timeline t.json", "-timeline is written only by -fig 7 or -fig 8 or -fig 9, not by -cluster"},
		{"-attribution -timeline t.json", "-timeline is written only by -fig 7 or -fig 8 or -fig 9, not by -attribution"},
		{"-suite -cells E -simprofile x.folded", "-simprofile is written only by -fig 7 or -fig 8 or -attribution, not by -suite"},
		{"-fig 7 -suite-json f", "-suite-json is written only by -suite, not by -fig 7"},
		{"-fig 7 -cluster-json f", "-cluster-json is written only by -cluster, not by -fig 7"},
		{"-fig 7 -cluster-trace f", "-cluster-trace is written only by -cluster, not by -fig 7"},
		{"-fig 9 -sched-trace s.tsv", "-sched-trace is written only by -fig 7 or -fig 8, not by -fig 9"},
		{"-cluster -interval 3s", "-interval is written only by -fig 7 or -fig 8, not by -cluster"},
		{"-attribution -top-json t.json", "-top-json is written only by -fig 7 or -fig 8, not by -attribution"},
		{"-suite -registry-json r.json", "-registry-json is written only by -fig 7 or -fig 8, not by -suite"},
		{"-fig 9 -svg f.svg", "-svg is written only by -fig 7 or -fig 8 or -attribution, not by -fig 9"},
		// -suite runs ahead of -cluster, so the cluster's outputs go unwritten.
		{"-suite -cluster -cluster-json f", "-cluster-json is written only by -cluster, not by -suite"},
		// -cells selects suite cells: it needs -suite, the canonical suite
		// result it cannot shrink, and a prefix of some cell's name.
		{"-fig 7 -cells A", "-cells selects -suite cells, not -fig 7 runs"},
		{"-suite -cells A -suite-json s.json", "-suite-json writes the whole suite's result, so it takes no -cells"},
		{"-suite -cells table1,X9", `experiments: no suite cell name starts with "X9"`},
		// Accepted: every output with a mode that writes it, and outputs
		// left unset, false or zero.
		{"-timeline t.json -simprofile x.folded -metrics", ""},
		{"-fig 8 -timeline t.json -simprofile x.folded", ""},
		{"-fig 7 -sched-trace s.tsv -interval 3s -top-json t.json -registry-json r.json -svg f.svg", ""},
		{"-attribution -fig 8 -simprofile x.folded -svg f.svg", ""},
		{"-fig 9 -timeline t.json", ""},
		{"-suite -suite-json s.json", ""},
		{"-suite -cells table1,A,E8", ""},
		{"-cluster -cluster-json c.json -cluster-trace t.json", ""},
		{"-suite -cells A -metrics=false -timeline= -interval=0s", ""},
		{"-suite -cells E8 -cpuprofile c.prof -memprofile m.prof", ""},
	} {
		fs := flag.NewFlagSet("nemesis-paging", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o := defineFlags(fs)
		if err := fs.Parse(strings.Fields(tc.args)); err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		got := ""
		if err := checkOutputs(fs, o); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%s: got error %q, want %q", tc.args, got, tc.want)
		}
	}
}

// TestTraceWriterRejectsInvalidTrace checks that writeTrace validates a
// render before it creates the file: a timeline that fails obs.ValidateTrace
// is an error, and no file appears.
func TestTraceWriterRejectsInvalidTrace(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name, body string
		valid      bool
	}{
		{"valid.json", `{"traceEvents":[{"name":"x","ph":"X","pid":1,"ts":0,"dur":1}]}`, true},
		{"empty.json", `{"traceEvents":[]}`, false},
		{"no-ts.json", `{"traceEvents":[{"name":"x","ph":"X","pid":1}]}`, false},
		{"not-json.json", `{"traceEvents":[`, false},
	} {
		path := filepath.Join(dir, tc.name)
		err := writeTrace(path, func(w io.Writer) error {
			_, err := io.WriteString(w, tc.body)
			return err
		})
		_, statErr := os.Stat(path)
		switch {
		case tc.valid && (err != nil || statErr != nil):
			t.Errorf("%s: valid trace not written: %v, %v", tc.name, err, statErr)
		case !tc.valid && err == nil:
			t.Errorf("%s: invalid trace accepted", tc.name)
		case !tc.valid && !os.IsNotExist(statErr):
			t.Errorf("%s: rejected trace still created the file (stat: %v)", tc.name, statErr)
		}
	}
}
