package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// summarySource builds one machine-shaped rollup: a registry with spans
// across shared hop names and overlapping domains, summarized and prefixed
// the way a cluster machine's rollup is.
func summarySource(t *testing.T, i int) *Summary {
	t.Helper()
	r, fc := newTestRegistry()
	for d := 0; d < 3+i; d++ {
		sp := r.StartSpan(r.DomainNum(fmt.Sprintf("d%d", (i+d)%5)), "page")
		sp.BeginHop("queue")
		fc.advance(time.Duration(1+i+d) * time.Millisecond)
		sp.BeginHop("net.out")
		fc.advance(time.Duration(2+d) * time.Millisecond)
		sp.Finish("ok")
	}
	r.Counter("driver", "pageins", "").Add(int64(10 * (i + 1)))
	r.Counter("driver", "pageouts", "").Add(int64(i))
	r.Audit(AuditRevokeBegin, "d0", "", 4, "warm")
	s := r.Summarize(3)
	s.Prefix(fmt.Sprintf("m%d/", i))
	return s
}

// mergeInOrder folds the given parts in the given order into a fresh
// Summary, applies the final truncation, and returns the canonical JSON.
func mergeInOrder(t *testing.T, parts []*Summary, order []int) []byte {
	t.Helper()
	s := &Summary{}
	for _, i := range order {
		s.Merge(parts[i])
	}
	s.Truncate(3)
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSummaryMergeOrderIndependent pins the rollup's merge algebra: folding
// per-machine summaries in any shuffled order — the orders a parallel sweep's
// completion nondeterminism could produce — yields byte-identical reports,
// the empty Summary is an identity, and pairwise tree folds match the
// left-to-right fold (associativity).
func TestSummaryMergeOrderIndependent(t *testing.T) {
	var parts []*Summary
	for i := 0; i < 5; i++ {
		parts = append(parts, summarySource(t, i))
	}
	want := mergeInOrder(t, parts, []int{0, 1, 2, 3, 4})

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		order := rng.Perm(len(parts))
		if got := mergeInOrder(t, parts, order); !bytes.Equal(got, want) {
			t.Fatalf("merge order %v changed the rollup:\n--- want ---\n%s\n--- got ---\n%s", order, want, got)
		}
	}

	// Identity: merging nil and empty summaries changes nothing.
	s := &Summary{}
	s.Merge(nil)
	s.Merge(&Summary{})
	for _, p := range parts {
		s.Merge(p)
	}
	s.Merge(&Summary{})
	s.Truncate(3)
	if got, err := json.MarshalIndent(s, "", "  "); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("empty-summary merges are not identities (err %v):\n%s", err, got)
	}

	// Associativity: ((0+1) + (2+3+4)) == (0+1+2+3+4).
	left, right, tree := &Summary{}, &Summary{}, &Summary{}
	left.Merge(parts[0])
	left.Merge(parts[1])
	right.Merge(parts[2])
	right.Merge(parts[3])
	right.Merge(parts[4])
	tree.Merge(left)
	tree.Merge(right)
	tree.Truncate(3)
	if got, err := json.MarshalIndent(tree, "", "  "); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("tree fold differs from sequential fold (err %v):\n%s", err, got)
	}
}

// TestSummaryTruncateAfterMerge pins why Merge keeps the domain union: a
// domain that is below every per-source top-K cut can still be cluster-wide
// top when its share is summed across sources, so truncation must happen
// once, after the final merge — truncating between merges loses it.
func TestSummaryTruncateAfterMerge(t *testing.T) {
	mk := func(prefix string, blocked map[string]time.Duration) *Summary {
		r, fc := newTestRegistry()
		for dom, d := range blocked {
			sp := r.StartSpan(r.DomainNum(dom), "page")
			fc.advance(d)
			sp.Finish("ok")
		}
		s := r.Summarize(1)
		s.Prefix(prefix)
		return s
	}
	// "shared" is rank 2 on both machines; summed it beats both leaders —
	// but each source's top-1 truncation already dropped it, so this also
	// documents that per-source TopK bounds what a merge can recover.
	a := mk("", map[string]time.Duration{"a-big": 10 * time.Millisecond})
	a.Merge(mk("", map[string]time.Duration{"shared": 7 * time.Millisecond}))
	a.Merge(mk("", map[string]time.Duration{"shared": 7 * time.Millisecond}))
	if len(a.TopDomains) != 2 {
		t.Fatalf("merge must keep the union before truncation: %+v", a.TopDomains)
	}
	a.Truncate(1)
	if len(a.TopDomains) != 1 || a.TopDomains[0].Domain != "shared" {
		t.Fatalf("final truncation picked %+v, want the summed 'shared' domain on top", a.TopDomains)
	}
	if a.TopDomains[0].BlockedNs != int64(14*time.Millisecond) {
		t.Fatalf("shared blocked = %d", a.TopDomains[0].BlockedNs)
	}
}
