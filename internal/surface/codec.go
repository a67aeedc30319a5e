package surface

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Binary surface format "SRF1", framed like the PR 5 blob store so a
// torn or bit-rotted artifact is detected before a single interpolated
// answer leaves it:
//
//	[0:4)  magic "SRF1"
//	[4:8)  crc32c (Castagnoli) of the payload
//	[8:12) payload length, uint32 LE
//	payload:
//	  [0:4) spec JSON length, uint32 LE
//	  spec JSON (the marshaled Spec)
//	  one float64 LE tensor per Spec.Fields entry, Points() values each
//
// Error bounds are not serialized: Decode recomputes them from the
// tensors, so the bound derivation can tighten without invalidating
// stored surfaces (the content address covers only the spec).

const (
	srfMagic  = "SRF1"
	srfHeader = 12
)

// ErrCorrupt reports a surface blob that failed framing or checksum
// validation.
var ErrCorrupt = errors.New("surface: corrupt artifact")

var srfCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes the surface into its framed binary form.
func (s *Surface) Encode() ([]byte, error) {
	spec, err := json.Marshal(s.Spec)
	if err != nil {
		return nil, err
	}
	points := s.Spec.Points()
	payload := make([]byte, 4+len(spec)+8*points*len(s.tensors))
	binary.LittleEndian.PutUint32(payload, uint32(len(spec)))
	copy(payload[4:], spec)
	off := 4 + len(spec)
	for _, t := range s.tensors {
		for _, v := range t {
			binary.LittleEndian.PutUint64(payload[off:], math.Float64bits(v))
			off += 8
		}
	}
	return frame(payload), nil
}

// frame wraps a payload in the SRF1 header: magic, CRC and length.
func frame(payload []byte) []byte {
	out := make([]byte, srfHeader+len(payload))
	copy(out, srfMagic)
	binary.LittleEndian.PutUint32(out[4:], crc32.Checksum(payload, srfCastagnoli))
	binary.LittleEndian.PutUint32(out[8:], uint32(len(payload)))
	copy(out[srfHeader:], payload)
	return out
}

// Decode parses and validates a framed surface, recomputing error
// bounds. Any framing, checksum, spec or tensor-shape violation returns
// an error wrapping ErrCorrupt.
func Decode(b []byte) (*Surface, error) {
	if len(b) < srfHeader || string(b[:4]) != srfMagic {
		return nil, fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	plen := binary.LittleEndian.Uint32(b[8:])
	if int(plen) != len(b)-srfHeader {
		return nil, fmt.Errorf("%w: length %d does not match %d payload bytes", ErrCorrupt, plen, len(b)-srfHeader)
	}
	payload := b[srfHeader:]
	if got, want := crc32.Checksum(payload, srfCastagnoli), binary.LittleEndian.Uint32(b[4:]); got != want {
		return nil, fmt.Errorf("%w: crc mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}
	if len(payload) < 4 {
		return nil, fmt.Errorf("%w: truncated payload", ErrCorrupt)
	}
	slen := binary.LittleEndian.Uint32(payload)
	if int(slen) > len(payload)-4 {
		return nil, fmt.Errorf("%w: spec length %d exceeds payload", ErrCorrupt, slen)
	}
	var spec Spec
	if err := json.Unmarshal(payload[4:4+slen], &spec); err != nil {
		return nil, fmt.Errorf("%w: spec: %v", ErrCorrupt, err)
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	points := spec.Points()
	rest := payload[4+slen:]
	if len(rest) != 8*points*len(spec.Fields) {
		return nil, fmt.Errorf("%w: %d tensor bytes, want %d", ErrCorrupt, len(rest), 8*points*len(spec.Fields))
	}
	fields := make(map[string][]float64, len(spec.Fields))
	off := 0
	for _, name := range spec.Fields {
		t := make([]float64, points)
		for i := range t {
			t[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[off:]))
			off += 8
		}
		fields[name] = t
	}
	s, err := New(spec, fields)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return s, nil
}
