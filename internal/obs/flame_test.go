package obs

import (
	"strings"
	"testing"
)

func TestParseFolded(t *testing.T) {
	in := "app1;running 120\napp1;blocked-fault;usd.read 4500\n\napp2;idle 99\n"
	lines, err := ParseFolded(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 {
		t.Fatalf("parsed %d lines, want 3", len(lines))
	}
	want := FoldedLine{Frames: []string{"app1", "blocked-fault", "usd.read"}, Micros: 4500}
	got := lines[1]
	if got.Micros != want.Micros || strings.Join(got.Frames, ";") != strings.Join(want.Frames, ";") {
		t.Fatalf("line 2 = %+v, want %+v", got, want)
	}
}

func TestParseFoldedRejectsGarbage(t *testing.T) {
	for _, in := range []string{"nocount", "stack -5", "stack notanumber", " 42"} {
		if _, err := ParseFolded(strings.NewReader(in)); err == nil {
			t.Errorf("ParseFolded(%q) accepted", in)
		}
	}
}

func TestFlameSVGDeterministic(t *testing.T) {
	lines := []FoldedLine{
		{Frames: []string{"app1", "running"}, Micros: 300_000},
		{Frames: []string{"app1", "blocked-fault", "usd.read"}, Micros: 500_000},
		{Frames: []string{"app1", "idle"}, Micros: 200_000},
		{Frames: []string{"app2", "running"}, Micros: 1_000_000},
	}
	var a, b strings.Builder
	if err := WriteFlameSVG(&a, lines); err != nil {
		t.Fatal(err)
	}
	if err := WriteFlameSVG(&b, lines); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("SVG output not deterministic")
	}
	svg := a.String()
	if !strings.HasPrefix(svg, "<svg ") || !strings.HasSuffix(svg, "</svg>\n") {
		t.Fatalf("not a standalone SVG document:\n%s", svg)
	}
	for _, frag := range []string{"app1", "app2", "usd.read", "2.000s total"} {
		if !strings.Contains(svg, frag) {
			t.Errorf("SVG missing %q", frag)
		}
	}
	// Same frame name must always hash to the same fill color.
	if flameColor("usd.read") != flameColor("usd.read") {
		t.Fatal("flameColor unstable")
	}
}

func TestFlameSVGRoundTripFromAttribution(t *testing.T) {
	r, fc := newTestRegistry()
	attr := r.EnableAttribution()
	d := attr.Track(r.DomainNum("d1"))
	d.CPUWait()
	d.CPURun()
	fc.t += 2_000_000 // 2ms running
	s := r.StartSpan(r.DomainNum("d1"), "page")
	s.BeginHop("usd.read")
	fc.t += 3_000_000 // 3ms fault
	s.Finish("ok")
	d.CPUYield()

	var folded strings.Builder
	if err := attr.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	lines, err := ParseFolded(strings.NewReader(folded.String()))
	if err != nil {
		t.Fatalf("WriteFolded output unparseable: %v\n%s", err, folded.String())
	}
	var total int64
	for _, l := range lines {
		total += l.Micros
	}
	if total != 5000 {
		t.Fatalf("round-tripped total = %dus, want 5000", total)
	}
	var svg strings.Builder
	if err := WriteFlameSVG(&svg, lines); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg.String(), "blocked-fault") {
		t.Fatal("SVG missing fault frame")
	}
}

func TestFlameSVGEmptyInput(t *testing.T) {
	var sb strings.Builder
	if err := WriteFlameSVG(&sb, nil); err == nil {
		t.Fatal("WriteFlameSVG accepted empty input")
	}
}
