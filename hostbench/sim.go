package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"nemesis/internal/experiments"
)

// digests maps a generated spec, by its digestKey, to the SHA-256 of the
// EncodeResult bytes its run must produce. It pins the default seed and a
// held-out seed of each simulation workload; a deliberate re-baseline of
// simulated results updates it.
//
//go:embed digests.json
var digestsJSON []byte

var digests = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic("hostbench: digests.json: " + err.Error())
	}
	return m
}()

// digestKey names a generated spec in the digest table by the fields the
// benchmark varies: kind, figure and seed. A new Spec field or a changed
// default then makes a pinned seed's digest differ instead of go missing.
func digestKey(s experiments.Spec) string {
	if s.Kind == experiments.KindFigure {
		return fmt.Sprintf("figure-%d/seed-%d", s.Figure, s.Seed)
	}
	return fmt.Sprintf("%s/seed-%d", s.Kind, s.Seed)
}

// specKey is the JSON of a normalized spec, which names it in messages.
func specKey(s experiments.Spec) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic("hostbench: encoding a spec: " + err.Error()) // Spec has no unencodable fields
	}
	return string(b)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// noted holds the specs whose missing digest has been reported.
var noted = map[string]bool{}

// checkFirst checks the first answer for a spec: against its stored digest
// when the table has one, else by its own shape. A spec without a stored
// digest has its digest printed once, so the table can be extended.
func checkFirst(spec experiments.Spec, body []byte, valid func(*experiments.Result) error) error {
	key := specKey(spec)
	if want, ok := digests[digestKey(spec)]; ok {
		if got := digest(body); got != want {
			return fmt.Errorf("%s: result digest %s, stored %s", key, got, want)
		}
		return nil
	}
	if !noted[key] {
		noted[key] = true
		fmt.Fprintf(os.Stderr, "hostbench: no stored digest for %s; result digest %s\n", key, digest(body))
	}
	var r experiments.Result
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("%s: decoding the result: %w", key, err)
	}
	if err := valid(&r); err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	return nil
}

// validFigure checks the shape of a Fig. 7/8 result: three clients, each
// with a positive sustained bandwidth.
func validFigure(spec experiments.Spec) func(*experiments.Result) error {
	return func(r *experiments.Result) error {
		f := r.Figure
		if f == nil || f.Fig != spec.Figure || len(f.MeanMbps) != 3 || len(f.Ratios) != 2 {
			return errors.New("result is not a three-client figure")
		}
		for _, m := range f.MeanMbps {
			if !(m > 0) {
				return fmt.Errorf("a client sustained %v Mbit/s", m)
			}
		}
		return nil
	}
}

// validCluster checks the shape of a one-machine cluster result: every
// domain present, events dispatched, and no guarantee violated.
func validCluster(spec experiments.Spec) func(*experiments.Result) error {
	return func(r *experiments.Result) error {
		if r.Cluster == nil || len(r.Cluster.Machines) != spec.Machines || r.Cluster.Summary == nil {
			return errors.New("result is not a cluster run")
		}
		t := r.Cluster.Totals()
		switch {
		case t.Domains != spec.Machines*spec.DomainsPerMachine:
			return fmt.Errorf("%d domains, want %d", t.Domains, spec.Machines*spec.DomainsPerMachine)
		case t.Events <= 0:
			return errors.New("no events dispatched")
		case t.Violations != 0:
			return fmt.Errorf("%d guarantee violations", t.Violations)
		}
		return nil
	}
}

// simRun repeats one RunSpec call: the fig7-pagein, fig8-pageout and
// cluster-5k workloads.
type simRun struct {
	spec    experiments.Spec // as generated from the seed; set-up normalizes it
	warmups int
	valid   func(experiments.Spec) func(*experiments.Result) error

	norm   experiments.Spec
	want   string              // the digest every op must reproduce
	result *experiments.Result // the first warm-up's result
	bad    error               // a failed set-up check
	logged bool
}

func newFigure(fig int, seed int64, warmups int) workload {
	return &simRun{
		spec:    experiments.Spec{Kind: experiments.KindFigure, Figure: fig, Seed: seed},
		warmups: warmups,
		valid:   validFigure,
	}
}

func newCluster(seed int64) workload {
	return &simRun{
		spec: experiments.Spec{
			Kind: experiments.KindCluster, Machines: 1, DomainsPerMachine: 5000, Servers: 6, Seed: seed,
		},
		warmups: 2,
		valid:   validCluster,
	}
}

func runSpec(spec experiments.Spec) (*experiments.Result, []byte, error) {
	out, err := experiments.RunSpec(context.Background(), spec, 1)
	if err != nil {
		return nil, nil, err
	}
	body, err := experiments.EncodeResult(out.Result)
	if err != nil {
		return nil, nil, err
	}
	return out.Result, body, nil
}

func (r *simRun) setup() error {
	r.norm = r.spec
	if err := r.norm.Normalize(); err != nil {
		return err
	}
	for i := 0; i < r.warmups; i++ {
		res, body, err := runSpec(r.norm)
		if err != nil {
			return err
		}
		if i == 0 {
			r.want, r.result = digest(body), res
			if err := checkFirst(r.norm, body, r.valid(r.norm)); err != nil && r.bad == nil {
				r.bad = err
			}
		} else if got := digest(body); got != r.want && r.bad == nil {
			r.bad = fmt.Errorf("%s: warm-up %d digest %s differs from the first, %s", specKey(r.norm), i, got, r.want)
		}
	}
	return nil
}

func (r *simRun) run(deadline time.Time) []op {
	var ops []op
	for time.Now().Before(deadline) {
		t0 := time.Now()
		_, body, err := runSpec(r.norm)
		d := time.Since(t0)
		if err == nil && digest(body) != r.want {
			err = fmt.Errorf("result digest %s differs from the set-up's %s", digest(body), r.want)
		}
		if err != nil && !r.logged {
			fmt.Fprintf(os.Stderr, "hostbench: %s: %v\n", specKey(r.norm), err)
			r.logged = true
		}
		ops = append(ops, op{dur: d, ok: err == nil})
	}
	return ops
}

func (r *simRun) check() error { return r.bad }

// layers reports the cluster's deterministic counts: events dispatched and
// netswap traffic, from the result.
func (r *simRun) layers(ops []op, put func(string, float64)) {
	c := r.result.Cluster
	if c == nil {
		return
	}
	events := float64(c.Totals().Events)
	put("sim.events", events)
	ms := make([]float64, len(ops))
	for i, o := range ops {
		ms[i] = float64(o.dur) / 1e6
	}
	put("sim.ns_per_event", quantile(ms, 0.5)*1e6/events)
	var rpcs, retries float64
	for _, k := range c.Summary.Counters {
		switch {
		case k.Subsystem == "netswap" && k.Name == "rpcs":
			rpcs = float64(k.Value)
		case k.Subsystem == "netswap" && k.Name == "retries":
			retries = float64(k.Value)
		}
	}
	put("netswap.rpcs", rpcs)
	if rpcs+retries > 0 {
		put("netswap.retry_pct", 100*retries/(rpcs+retries))
	}
}

func (r *simRun) close() {}
