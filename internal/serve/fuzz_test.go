package serve

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"nemesis/internal/experiments"
)

// writeVariant re-encodes a decoded JSON value with its object keys in a
// random order and random whitespace between tokens: the same content,
// spelled differently.
func writeVariant(buf *bytes.Buffer, v any, rng *rand.Rand) {
	space := func() {
		buf.WriteString([]string{"", " ", "\n", "\t ", "\r\n  "}[rng.Intn(5)])
	}
	space()
	switch x := v.(type) {
	case []any:
		buf.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				buf.WriteByte(',')
			}
			writeVariant(buf, e, rng)
		}
		space()
		buf.WriteByte(']')
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			space()
			kb, _ := json.Marshal(k)
			buf.Write(kb)
			space()
			buf.WriteByte(':')
			writeVariant(buf, x[k], rng)
		}
		space()
		buf.WriteByte('}')
	default:
		b, _ := json.Marshal(x) // nil, bool, json.Number or string
		buf.Write(b)
	}
	space()
}

// FuzzCanonicalJSON feeds arbitrary bodies through CanonicalJSON. Every
// body that decodes as JSON canonicalizes, to valid JSON that is its own
// canonical form, and to the same bytes whatever the body's whitespace and
// key order. A body that decodes as a spec and normalizes has the same
// SpecKey as its normalized spec.
func FuzzCanonicalJSON(f *testing.F) {
	// FuzzNormalize's seeds (internal/experiments), plus a few bodies that
	// are JSON but no spec.
	for _, seed := range []string{
		`{"kind":"figure","figure":7,"seed":1}`,
		`{"kind":"figure","figure":8,"seed":2}`,
		`{"kind":"cluster","machines":1,"domains_per_machine":5000,"servers":6,"seed":7}`,
		`{"kind":"figure","figure":7,"seed":8,"measure":"40.003s"}`,
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
		`[1.50, -0, 1e3, 9007199254740993, "é😀<>&", null, {"b": [], "a": {}}]`,
		`" "`,
		`true`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if !json.Valid(body) {
			return
		}
		canon, err := CanonicalJSON(json.RawMessage(body))
		if err != nil {
			t.Fatalf("CanonicalJSON(%s): %v", body, err)
		}
		if !json.Valid(canon) {
			t.Fatalf("CanonicalJSON(%s) = %s, not JSON", body, canon)
		}
		if again, err := CanonicalJSON(json.RawMessage(canon)); err != nil || !bytes.Equal(again, canon) {
			t.Fatalf("canonical form %s re-canonicalized to %s, %v", canon, again, err)
		}

		dec := json.NewDecoder(bytes.NewReader(body))
		dec.UseNumber()
		var tree any
		if err := dec.Decode(&tree); err != nil {
			t.Fatalf("decoding valid JSON %s: %v", body, err)
		}
		if fromTree, err := CanonicalJSON(tree); err != nil || !bytes.Equal(fromTree, canon) {
			t.Fatalf("decoded %s canonicalized to %s, %v; want %s", body, fromTree, err, canon)
		}
		h := fnv.New64a()
		h.Write(body)
		var variant bytes.Buffer
		writeVariant(&variant, tree, rand.New(rand.NewSource(int64(h.Sum64()))))
		if got, err := CanonicalJSON(json.RawMessage(variant.Bytes())); err != nil || !bytes.Equal(got, canon) {
			t.Fatalf("respelling %s as %s canonicalized to %s, %v; want %s", body, variant.Bytes(), got, err, canon)
		}

		var spec experiments.Spec
		sd := json.NewDecoder(bytes.NewReader(body))
		sd.DisallowUnknownFields()
		if sd.Decode(&spec) != nil {
			return
		}
		key, norm, err := SpecKey(spec)
		if err != nil {
			return
		}
		if normKey, _, err := SpecKey(norm); err != nil || normKey != key {
			t.Fatalf("spec %s: key %s, its normalized spec %+v keys to %s, %v", body, key, norm, normKey, err)
		}
	})
}
