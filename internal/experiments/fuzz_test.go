package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// decodeSpec decodes a spec body the way nemesis-serve does: one JSON
// value, unknown fields rejected.
func decodeSpec(body []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&s)
	return s, err
}

// checkSpecBounds reports the first way a normalized spec breaks the
// service bounds or names no runnable experiment.
func checkSpecBounds(s Spec) error {
	if s.Measure <= 0 || s.Measure > Duration(maxMeasure) {
		return fmt.Errorf("measure %v outside (0, %v]", s.Measure.D(), maxMeasure)
	}
	switch s.Kind {
	case KindSuite:
	case KindFigure, KindAttribution:
		if s.Figure < 7 || s.Figure > 9 || (s.Kind == KindAttribution && s.Figure == 9) {
			return fmt.Errorf("%s spec with figure %d", s.Kind, s.Figure)
		}
		if s.Seed == 0 {
			return errors.New("seed left at 0")
		}
	case KindNetswap:
		if len(s.Latencies) == 0 || len(s.Latencies) > maxNetswapAxis || len(s.Losses) == 0 || len(s.Losses) > maxNetswapAxis {
			return fmt.Errorf("netswap sweep %d × %d", len(s.Latencies), len(s.Losses))
		}
		for _, l := range s.Latencies {
			if l <= 0 {
				return fmt.Errorf("netswap latency %v", l.D())
			}
		}
		for _, p := range s.Losses {
			if !(p >= 0 && p < 1) {
				return fmt.Errorf("netswap loss %v", p)
			}
		}
	case KindCluster:
		if s.Machines < 1 || s.Machines > maxMachines || s.DomainsPerMachine < 1 ||
			s.DomainsPerMachine > maxDomainsPerMachine || s.Servers < 1 || s.Servers > maxServers {
			return fmt.Errorf("cluster %d×%d over %d", s.Machines, s.DomainsPerMachine, s.Servers)
		}
		if s.Seed == 0 {
			return errors.New("seed left at 0")
		}
	default:
		return fmt.Errorf("kind %q", s.Kind)
	}
	return nil
}

// FuzzNormalize feeds arbitrary spec bodies through serve's decoding and
// Normalize. A decoded spec is either rejected with an ErrInvalidSpec, or
// normalizes to a spec inside every service bound that is a fixed point:
// normalizing it again, directly or after a JSON round trip, changes no
// field and no encoded byte. It never runs a spec.
func FuzzNormalize(f *testing.F) {
	for _, seed := range []string{
		// hostbench's workloads: fig7-pagein, fig8-pageout, cluster-5k, and
		// a serve-mix warm-pool request.
		`{"kind":"figure","figure":7,"seed":1}`,
		`{"kind":"figure","figure":8,"seed":2}`,
		`{"kind":"cluster","machines":1,"domains_per_machine":5000,"servers":6,"seed":7}`,
		`{"kind":"figure","figure":7,"seed":8,"measure":"40.003s"}`,
		// Bodies from CI, the README and the tests.
		`{"kind":"figure","figure":8,"measure":"5s"}`,
		`{"measure":"5000ms","figure":8,"kind":"figure","seed":1}`,
		`{"kind":"figure","figure":8,"measure":"5s","trace":true}`,
		`{"kind":"suite","measure":"15s"}`,
		`{"kind":"suite","measure":1000000000}`,
		`{"kind":"suite","figure":8,"seed":42,"machines":9,"hog":true,"losses":[0.5]}`,
		`{"kind":"figure","figure":9}`,
		`{"kind":"netswap","latencies":["200µs","1ms"],"losses":[0,0.05],"measure":"100ms"}`,
		`{"kind":"netswap","latencies":["-1s"]}`,
		`{"kind":"netswap","losses":[1.5]}`,
		`{"kind":"netswap","losses":[-0,0.05]}`,
		`{"kind":"cluster","machines":3,"domains_per_machine":2,"servers":1,"measure":"50ms"}`,
		`{"kind":"cluster","machines":1000}`,
		`{"kind":"cluster","servers":65}`,
		`{"kind":"attribution","figure":7,"hog":true}`,
		`{"kind":"attribution","figure":9}`,
		`{"kind":"suite","measure":"1h"}`,
		`{"kind":"figure","figure":7,"mesure":"5s"}`,
		`{"kind":"warp"}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(body)
		if err != nil {
			return
		}
		if err := spec.Normalize(); err != nil {
			if !errors.Is(err, ErrInvalidSpec) {
				t.Fatalf("Normalize(%s) = %v, not an ErrInvalidSpec", body, err)
			}
			return
		}
		if err := checkSpecBounds(spec); err != nil {
			t.Fatalf("Normalize(%s) = %+v: %v", body, spec, err)
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("encoding %+v: %v", spec, err)
		}
		again := spec
		if err := again.Normalize(); err != nil || !reflect.DeepEqual(again, spec) {
			t.Fatalf("re-normalizing %s: %+v, %v", enc, again, err)
		}
		decoded, err := decodeSpec(enc)
		if err != nil {
			t.Fatalf("decoding normalized %s: %v", enc, err)
		}
		if err := decoded.Normalize(); err != nil || !reflect.DeepEqual(decoded, spec) {
			t.Fatalf("round trip of %s normalized to %+v, %v", enc, decoded, err)
		}
		if enc2, _ := json.Marshal(decoded); !bytes.Equal(enc2, enc) {
			t.Fatalf("round trip changed the bytes:\n%s\n%s", enc, enc2)
		}
	})
}
