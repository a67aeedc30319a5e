package surface

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"
)

// FuzzSurfaceDecode feeds Decode arbitrary bytes, both as a whole blob and
// re-framed as a payload with a valid CRC, so mutations get past the
// checksum into the spec parser and the tensor reads. Nothing may panic, and every
// rejection wraps ErrCorrupt. An accepted surface must survive
// Decode(Encode(s)) with the same spec, tensors and bounds, re-encode to
// the same bytes, and answer at its first and last grid nodes with the
// stored values. Seeds: testdata/fuzz.
func FuzzSurfaceDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, blob := range [][]byte{data, frame(data)} {
			s, err := Decode(blob)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("rejection does not wrap ErrCorrupt: %v", err)
				}
				continue
			}
			checkAccepted(t, s)
		}
	})
}

func checkAccepted(t *testing.T, s *Surface) {
	t.Helper()
	enc, err := s.Encode()
	if err != nil {
		t.Fatalf("accepted surface does not encode: %v", err)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode(Encode(s)): %v", err)
	}
	// The marshaled spec is the surface's identity (Key hashes it); Base
	// is raw JSON and comes back compacted.
	want, _ := json.Marshal(s.Spec)
	have, _ := json.Marshal(got.Spec)
	if !bytes.Equal(want, have) {
		t.Fatalf("spec changed across the codec:\n%s\n%s", want, have)
	}
	for i, name := range s.Spec.Fields {
		a, b := s.tensors[i], got.Field(name)
		if len(a) != len(b) {
			t.Fatalf("field %q: %d values, %d after the round trip", name, len(a), len(b))
		}
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Fatalf("field %q point %d: %g != %g", name, j, a[j], b[j])
			}
		}
		if ba, bb := s.bounds[i], got.bounds[i]; math.Float64bits(ba) != math.Float64bits(bb) {
			t.Fatalf("field %q bound %g != %g", name, ba, bb)
		}
	}
	again, err := got.Encode()
	if err != nil || !bytes.Equal(again, enc) {
		t.Fatalf("re-encoding is not a fixed point (err %v)", err)
	}
	for _, node := range []int{0, s.Spec.Points() - 1} {
		values, _, err := s.Eval(s.Spec.Coords(node))
		if err != nil {
			t.Fatalf("grid node %d rejected: %v", node, err)
		}
		for i, v := range values {
			if v != s.tensors[i][node] {
				t.Fatalf("field %q at grid node %d: Eval %g, stored %g", s.Spec.Fields[i], node, v, s.tensors[i][node])
			}
		}
	}
}
