package experiments

import (
	"reflect"
	"testing"
	"time"
)

// TestPagingForkEquivalence pins the warm pool's byte parity: measuring on
// a fork of a warmed world (WarmPaging → Fork → Measure, what nemesis-serve
// does) is identical to RunPaging measuring the warmed world in place —
// means, measure window and the full USD scheduler trace. Fork carries
// untraced worlds only, so every case runs without telemetry.
func TestPagingForkEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*PagingOptions)
	}{
		{"fig7", func(*PagingOptions) {}},
		{"fig8", func(o *PagingOptions) { o.Forgetful = true }},
		{"hog", func(o *PagingOptions) { o.Hog = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultPagingOptions()
			opt.Measure = 2 * time.Second
			tc.mut(&opt)
			inPlace, err := RunPaging(opt)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := WarmPaging(opt)
			if err != nil {
				t.Fatal(err)
			}
			world, err := warm.Fork()
			if err != nil {
				t.Fatal(err)
			}
			warm.Sys.Shutdown()
			forked, err := world.Measure(opt.Measure)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(inPlace.MeanMbps, forked.MeanMbps) {
				t.Errorf("MeanMbps: in place %v, forked %v", inPlace.MeanMbps, forked.MeanMbps)
			}
			if inPlace.MeasureStart != forked.MeasureStart {
				t.Errorf("MeasureStart: in place %v, forked %v", inPlace.MeasureStart, forked.MeasureStart)
			}
			if !reflect.DeepEqual(inPlace.Log.Events(), forked.Log.Events()) {
				t.Errorf("USD trace differs between in-place and forked runs")
			}
		})
	}
}
