package engine

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"

	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
)

// randShares draws a weight share with random node counts, tensor lengths
// and elements reduced to the given ring.
func randShares(g *prg.PRG, r ring.Ring) *WeightShares {
	ws := &WeightShares{W: map[int][]uint64{}, Bias: map[int][]uint64{}}
	nodes := int(g.Uint64()%5) + 1
	for i := 0; i < nodes; i++ {
		id := int(g.Uint64() % 64)
		ws.W[id] = g.Elems(int(g.Uint64()%200)+1, r)
		if g.Uint64()%2 == 0 {
			ws.Bias[id] = g.Elems(int(g.Uint64()%16)+1, r)
		}
	}
	return ws
}

// TestFlatCodecRoundtrip is the property test behind protocol v5: across
// random bit-widths and payload shapes, decode(encode(ws)) must be
// deep-equal to the original and the encoding deterministic.
func TestFlatCodecRoundtrip(t *testing.T) {
	g := prg.NewSeeded(1234)
	for trial := 0; trial < 200; trial++ {
		bits := uint(g.Uint64()%47) + 16 // 16..62, the ring's full range
		r := ring.New(bits)
		ws := randShares(g, r)
		p, err := encodeShares(ws, r.Bytes())
		if err != nil {
			t.Fatalf("trial %d (bits %d): encode: %v", trial, bits, err)
		}
		got, err := decodeShares(p, r.Bytes())
		if err != nil {
			t.Fatalf("trial %d (bits %d): decode: %v", trial, bits, err)
		}
		if !reflect.DeepEqual(got, ws) {
			t.Fatalf("trial %d (bits %d): flat roundtrip not deep-equal to original", trial, bits)
		}

		// Determinism: the registry caches encoded payloads and requires
		// byte-identical re-encodes (map iteration order must not leak in).
		p2, err := encodeShares(ws, r.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, p2) {
			t.Fatalf("trial %d: encoding is not deterministic", trial)
		}
	}
}

// TestFlatCodecGolden pins the AQ2F byte layout itself: each vector is
// written out by hand from the layout in flatcodec.go, field by field, so
// a codec change that still roundtrips — a reordered section, a widened
// count, a different element endianness — fails here.
func TestFlatCodecGolden(t *testing.T) {
	for _, tc := range []struct {
		width  int
		shares *WeightShares
		golden string
	}{
		{
			width: 2,
			shares: &WeightShares{
				W:    map[int][]uint64{7: {0xABCD}, 0: {1, 2}},
				Bias: map[int][]uint64{7: {5}},
			},
			golden: `41513246 01 02 0000` + // magic "AQ2F", version 1, width 2, reserved
				`02000000` + // nW, entries sorted by node id
				`00000000 02000000 0100 0200` +
				`07000000 01000000 cdab` +
				`01000000` + // nBias
				`07000000 01000000 0500` +
				`00`, // hasX
		},
		{
			width: 3,
			shares: &WeightShares{
				W:    map[int][]uint64{258: {0x010203, 0xFFFFFF, 0}},
				Bias: map[int][]uint64{},
			},
			golden: `41513246 01 03 0000` +
				`01000000` +
				`02010000 03000000 030201 ffffff 000000` +
				`00000000` +
				`00`,
		},
		{
			width: 8,
			shares: &WeightShares{
				W:    map[int][]uint64{3: {}},
				Bias: map[int][]uint64{1: {0x0102030405060708}, 2: {^uint64(0)}},
			},
			golden: `41513246 01 08 0000` +
				`01000000` +
				`03000000 00000000` + // a present-but-empty slab
				`02000000` +
				`01000000 01000000 0807060504030201` +
				`02000000 01000000 ffffffffffffffff` +
				`00`,
		},
	} {
		want, err := hex.DecodeString(strings.ReplaceAll(tc.golden, " ", ""))
		if err != nil {
			t.Fatal(err)
		}
		got, err := encodeShares(tc.shares, tc.width)
		if err != nil {
			t.Fatalf("width %d: encode: %v", tc.width, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("width %d: encoded\n%x\nwant the golden\n%x", tc.width, got, want)
		}
		back, err := decodeShares(want, tc.width)
		if err != nil {
			t.Fatalf("width %d: decoding the golden vector: %v", tc.width, err)
		}
		if !reflect.DeepEqual(back, tc.shares) {
			t.Errorf("width %d: golden vector decoded to %+v, want %+v", tc.width, back, tc.shares)
		}
	}
}

// TestFlatCodecRejectsInputSlab: the trailing flag once announced an input
// slab (the retired one-inference-per-connection flow shipped its input
// share in this payload). Nothing sends it now, so a payload that sets it
// is a typed framing violation, not silently skipped bytes.
func TestFlatCodecRejectsInputSlab(t *testing.T) {
	p, err := encodeShares(&WeightShares{W: map[int][]uint64{0: {1}}, Bias: map[int][]uint64{}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	p[len(p)-1] = 1
	p = append(p, 1, 0, 0, 0, 9, 0, 0, 0) // count 1, element 9: the old slab
	_, err = decodeShares(p, 4)
	var pe *PayloadError
	if !errors.As(err, &pe) || !pe.Wire || pe.Field != "input flag" {
		t.Fatalf("payload with the input flag set decoded with %v, want the input-flag *PayloadError", err)
	}
}
