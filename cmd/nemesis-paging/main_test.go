package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestOutputFlagsNeedAWritingMode parses command lines as main does and
// checks which output flags checkOutputs rejects: each combination below
// that fails used to run, exit 0 and write no file.
func TestOutputFlagsNeedAWritingMode(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-fig 9 -simprofile x.folded", "-simprofile is written only by -fig 7 or -fig 8, not by -fig 9"},
		{"-fig 0 -metrics", "-metrics is written only by -fig 7 or -fig 8, not by -fig 0"},
		{"-suite -timeline t.json", "-timeline is written only by -fig 7 or -fig 8 or -fig 9, not by -suite"},
		{"-cluster -timeline t.json", "-timeline is written only by -fig 7 or -fig 8 or -fig 9, not by -cluster"},
		{"-e8 all -timeline t.json", "-timeline is written only by -fig 7 or -fig 8 or -fig 9, not by -e8"},
		{"-ext -simprofile x.folded", "-simprofile is written only by -fig 7 or -fig 8, not by -ext"},
		{"-fig 7 -suite-json f", "-suite-json is written only by -suite, not by -fig 7"},
		{"-fig 7 -cluster-json f", "-cluster-json is written only by -cluster, not by -fig 7"},
		{"-fig 7 -cluster-trace f", "-cluster-trace is written only by -cluster, not by -fig 7"},
		// -suite runs ahead of -cluster, so the cluster's outputs go unwritten.
		{"-suite -cluster -cluster-json f", "-cluster-json is written only by -cluster, not by -suite"},
		// Accepted: every output with a mode that writes it, and outputs
		// left unset or false.
		{"-timeline t.json -simprofile x.folded -metrics", ""},
		{"-fig 8 -timeline t.json -simprofile x.folded", ""},
		{"-fig 9 -timeline t.json", ""},
		{"-suite -suite-json s.json", ""},
		{"-cluster -cluster-json c.json -cluster-trace t.json", ""},
		{"-fig 0 -metrics=false -timeline=", ""},
		{"-e8 all -cpuprofile c.prof -memprofile m.prof", ""},
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
