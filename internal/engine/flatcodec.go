package engine

import (
	"encoding/binary"
	"fmt"
	"sort"

	"aq2pnn/internal/transport"
)

// Flat share codec (protocol v5). Setup share payloads used to ride
// encoding/gob, which spends CPU on type reflection and stream dictionaries
// and encodes every uint64 at a value-dependent width — a generic answer to
// a problem with a fixed shape. A weight-share payload is two collections of
// ring elements, and the carrier ring's byte width is agreed in the handshake,
// so the payload is now a flat, fixed-width binary image: length-prefixed
// little-endian element slabs, each element exactly the ring's wire width
// (the same width-aware packing transport.PackElems uses for online
// traffic; HEQuant makes the case that 2PC communication wins come from
// width-aware encoding, not generic serialization). The codec rides
// *behind* the existing chunked-frame machinery of wire.go — framing,
// budget charging and chunk validation are unchanged; only the innermost
// bytes changed.
//
// Layout (all integers little-endian):
//
//	u32 magic "AQ2F" | u8 version | u8 width | u16 reserved=0
//	u32 nW    then nW    × (u32 nodeID | u32 count | count·width bytes)
//	u32 nBias then nBias × (u32 nodeID | u32 count | count·width bytes)
//	u8 hasX = 0 (the input slab of the retired one-shot flow; sessions
//	ship the input share per inference with transport.SendElems)
//
// Node entries are sorted by id, so encoding is deterministic (the
// registry's cached payload must be byte-identical across sessions).
// Every declared length is validated against the remaining payload before
// any allocation, mirroring the chunk framing's hostile-peer discipline;
// violations are typed *PayloadError values.

// flatMagic opens every flat share payload ("AQ2F").
const flatMagic = 0x46325141

// flatVersion is the codec generation inside the v5 wire protocol.
const flatVersion = 1

const flatHeaderLen = 8

// encodeShares serialises a weight share at the given element byte width.
// Elements must already be reduced below 2^(8·width); a violation is a
// programming error on the sending side, reported rather than masked.
func encodeShares(wp *WeightShares, width int) ([]byte, error) {
	if width < 1 || width > 8 {
		return nil, fmt.Errorf("engine: flat codec width %d outside [1,8]", width)
	}
	size := flatHeaderLen + 4 + 4 + 1
	for _, xs := range wp.W {
		size += 8 + len(xs)*width
	}
	for _, xs := range wp.Bias {
		size += 8 + len(xs)*width
	}
	p := make([]byte, 0, size)
	var hdr [flatHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], flatMagic)
	hdr[4] = flatVersion
	hdr[5] = byte(width)
	p = append(p, hdr[:]...)
	var err error
	if p, err = appendEntries(p, wp.W, width); err != nil {
		return nil, err
	}
	if p, err = appendEntries(p, wp.Bias, width); err != nil {
		return nil, err
	}
	p = append(p, 0) // hasX
	if len(p) > maxSetupPayload {
		return nil, fmt.Errorf("engine: setup payload %d bytes exceeds %d-byte cap", len(p), maxSetupPayload)
	}
	return p, nil
}

func appendEntries(p []byte, entries map[int][]uint64, width int) ([]byte, error) {
	ids := make([]int, 0, len(entries))
	for id := range entries {
		if id < 0 || uint64(id) > 0xFFFFFFFF {
			//lint:declassify node ids are public model-architecture indices, not share material
			return nil, fmt.Errorf("engine: flat codec node id %d outside uint32", id)
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(ids)))
	var err error
	for _, id := range ids {
		xs := entries[id]
		p = binary.LittleEndian.AppendUint32(p, uint32(id))
		p = binary.LittleEndian.AppendUint32(p, uint32(len(xs)))
		if p, err = appendElems(p, xs, width); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func appendElems(p []byte, xs []uint64, width int) ([]byte, error) {
	for _, x := range xs {
		if width < 8 && x>>(8*width) != 0 {
			return nil, fmt.Errorf("engine: flat codec element exceeds %d-byte width", width)
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		p = append(p, b[:width]...)
	}
	return p, nil
}

// flatReader walks a flat payload with every read bounds-checked; errors
// are typed *PayloadError framing violations.
type flatReader struct {
	p   []byte
	off int
}

func (r *flatReader) remaining() int { return len(r.p) - r.off }

func (r *flatReader) u8(field string) (byte, error) {
	if r.remaining() < 1 {
		return 0, wireError(field, r.remaining(), 1)
	}
	v := r.p[r.off]
	r.off++
	return v, nil
}

func (r *flatReader) u32(field string) (uint32, error) {
	if r.remaining() < 4 {
		return 0, wireError(field, r.remaining(), 4)
	}
	v := binary.LittleEndian.Uint32(r.p[r.off:])
	r.off += 4
	return v, nil
}

// elems reads a count·width slab. The length check precedes the
// allocation, so an oversize declared count is rejected at the cost of an
// error value, not a gigabyte buffer.
func (r *flatReader) elems(field string, count uint32, width int) ([]uint64, error) {
	need := uint64(count) * uint64(width)
	if uint64(r.remaining()) < need {
		return nil, wireError(field+" slab length", r.remaining(), int(need))
	}
	xs := make([]uint64, count)
	var b [8]byte
	for i := range xs {
		copy(b[:width], r.p[r.off:r.off+width])
		xs[i] = binary.LittleEndian.Uint64(b[:])
		r.off += width
	}
	return xs, nil
}

func (r *flatReader) entries(field string, width int) (map[int][]uint64, error) {
	count, err := r.u32(field + " entry count")
	if err != nil {
		return nil, err
	}
	// Each entry costs at least its 8-byte subheader; a count the payload
	// cannot possibly hold is rejected before the map is sized.
	if uint64(count)*8 > uint64(r.remaining()) {
		return nil, wireError(field+" entry count", int(count), r.remaining()/8)
	}
	out := make(map[int][]uint64, count)
	for i := uint32(0); i < count; i++ {
		id, err := r.u32(field + " node id")
		if err != nil {
			return nil, err
		}
		n, err := r.u32(field + " element count")
		if err != nil {
			return nil, err
		}
		if _, dup := out[int(id)]; dup {
			return nil, wireError(field+" duplicate node id", int(id), -1)
		}
		xs, err := r.elems(field, n, width)
		if err != nil {
			return nil, err
		}
		out[int(id)] = xs
	}
	return out, nil
}

// decodeShares parses a flat payload, rejecting any disagreement with the
// locally expected element width.
func decodeShares(p []byte, width int) (*WeightShares, error) {
	if width < 1 || width > 8 {
		return nil, fmt.Errorf("engine: flat codec width %d outside [1,8]", width)
	}
	r := &flatReader{p: p}
	magic, err := r.u32("flat magic")
	if err != nil {
		return nil, err
	}
	if magic != flatMagic {
		return nil, wireError("flat magic", int(magic), flatMagic)
	}
	ver, err := r.u8("flat version")
	if err != nil {
		return nil, err
	}
	if ver != flatVersion {
		return nil, wireError("flat version", int(ver), flatVersion)
	}
	w, err := r.u8("flat width")
	if err != nil {
		return nil, err
	}
	if int(w) != width {
		return nil, wireError("flat width", int(w), width)
	}
	if _, err := r.u8("flat reserved"); err != nil {
		return nil, err
	}
	if _, err := r.u8("flat reserved"); err != nil {
		return nil, err
	}
	var wp WeightShares
	if wp.W, err = r.entries("weights", width); err != nil {
		return nil, err
	}
	if wp.Bias, err = r.entries("bias", width); err != nil {
		return nil, err
	}
	hasX, err := r.u8("input flag")
	if err != nil {
		return nil, err
	}
	if hasX != 0 {
		return nil, wireError("input flag", int(hasX), 0)
	}
	if r.remaining() != 0 {
		return nil, wireError("trailing bytes", r.remaining(), 0)
	}
	return &wp, nil
}

// recvShares receives and decodes a share payload from the chunked setup
// exchange.
func recvShares(c transport.Conn, width int) (*WeightShares, error) {
	p, err := recvSetupBytes(c)
	if err != nil {
		return nil, err
	}
	return decodeShares(p, width)
}
