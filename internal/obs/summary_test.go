package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
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

// referenceTopDomains is the ranking Summarize built before it kept a top-K:
// an entry for every domain with an e2e histogram, in registry order, all
// sorted by blocked time descending, then name, and then truncated to topK.
func referenceTopDomains(r *Registry, topK int) []SummaryDomain {
	s := &Summary{}
	now := int64(r.now())
	didx := make([]int, len(r.doms))
	for i := range r.hists.n {
		h := r.hists.at(i)
		f := r.fams[h.fam]
		if f.sub != "span" || !strings.HasPrefix(f.name, "e2e.") {
			continue
		}
		if didx[h.dom] == 0 {
			s.TopDomains = append(s.TopDomains, SummaryDomain{Domain: r.doms[h.dom], ElapsedNs: now})
			didx[h.dom] = len(s.TopDomains)
		}
		d := &s.TopDomains[didx[h.dom]-1]
		d.Spans += h.count
		d.BlockedNs += int64(h.sum)
	}
	ds := s.TopDomains
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].BlockedNs != ds[j].BlockedNs {
			return ds[i].BlockedNs > ds[j].BlockedNs
		}
		return ds[i].Domain < ds[j].Domain
	})
	s.Truncate(topK)
	return s.TopDomains
}

// Summarize ranks domains with a top-K instead of building and sorting an
// entry for every domain. Over random populations whose blocked times tie
// often (so the name order decides), with domains that record in two fault
// classes, domains with an empty e2e histogram and domains with none, its
// ranking must equal the full sort and truncate for topK 0, 1, 10 and more
// than the number of domains.
func TestSummarizeTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 40; trial++ {
		r, fc := newTestRegistry()
		fc.advance(time.Second)
		n := rng.Intn(60)
		for _, i := range rng.Perm(n) {
			name := fmt.Sprintf("d%02d", i)
			switch rng.Intn(6) {
			case 0: // no e2e histogram: not ranked
				r.Counter("domain", "faults", name).Inc()
			case 1: // an e2e histogram that has observed nothing
				r.Histogram("span", "e2e.page", name)
			default:
				for _, class := range []string{"page", "protection"}[:1+rng.Intn(2)] {
					h := r.Histogram("span", "e2e."+class, name)
					for k := rng.Intn(3); k >= 0; k-- {
						h.Observe(time.Duration(1+rng.Intn(3)) * time.Millisecond)
					}
				}
			}
		}
		for _, k := range []int{0, 1, 10, n + 1} {
			want := referenceTopDomains(r, k)
			if got := r.Summarize(k).TopDomains; !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, %d domains, topK %d:\n got %+v\nwant %+v", trial, n, k, got, want)
			}
		}
	}
}
