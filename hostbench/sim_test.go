package main

import (
	"testing"

	"nemesis/internal/experiments"
)

// TestDigestsPinSeeds checks that the digest table holds every pinned seed
// under the key the set-up check looks it up by, so a pinned seed can never
// fall back to the shape check.
func TestDigestsPinSeeds(t *testing.T) {
	var specs []experiments.Spec
	for _, fig := range []int{7, 8} {
		for _, seed := range []int64{1, 2, 7, 8} {
			specs = append(specs, newFigure(fig, seed, 1).(*simRun).spec)
		}
	}
	for _, seed := range []int64{1, 7} {
		specs = append(specs, newCluster(seed).(*simRun).spec)
	}
	for _, s := range specs {
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		if _, ok := digests[digestKey(s)]; !ok {
			t.Errorf("no stored digest for %s", digestKey(s))
		}
	}
	if len(digests) != len(specs) {
		t.Errorf("digests.json holds %d entries, want %d", len(digests), len(specs))
	}
}
