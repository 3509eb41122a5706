package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		// The same values Python's statistics.quantiles(method="inclusive")
		// and numpy.quantile give.
		{[]float64{4, 1, 3, 2}, 0.25, 1.75},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{4, 1, 3, 2}, 0.75, 3.25},
		{[]float64{4, 1, 3, 2}, 0.9, 3.7},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 1, 4},
		{[]float64{7}, 0.9, 7},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 0.9, 100},
	} {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no values = %v, want NaN", got)
	}
	xs := []float64{3, 1, 2}
	quantile(xs, 0.5)
	if xs[0] != 3 {
		t.Error("quantile reordered its input")
	}
}

func TestHistQuantile(t *testing.T) {
	inf := math.Inf(1)
	buckets := []float64{-inf, 0, 1, 2, inf}
	for _, c := range []struct {
		counts []uint64
		q      float64
		want   float64
	}{
		{[]uint64{0, 3, 1, 1}, 0.5, 0.5}, // 3rd of 5 is in [0,1)
		{[]uint64{0, 3, 1, 1}, 0.7, 1.5}, // 4th of 5 is in [1,2)
		{[]uint64{0, 3, 1, 1}, 0.9, 2},   // 5th of 5 is in [2,+Inf): its finite edge
		{[]uint64{2, 0, 0, 0}, 0.5, 0},   // (-Inf,0): its finite edge
		{[]uint64{0, 0, 0, 0}, 0.5, 0},   // empty
	} {
		if got := histQuantile(buckets, c.counts, c.q); got != c.want {
			t.Errorf("histQuantile(%v, %v) = %v, want %v", c.counts, c.q, got, c.want)
		}
	}
}
