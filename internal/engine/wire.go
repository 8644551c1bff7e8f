package engine

import (
	"encoding/binary"
	"fmt"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/transport"
)

// Setup-phase wire helpers. The weight-share payload for a large model
// easily exceeds transport.MaxFrame (a ResNet50's shares encode to well
// over 64 MiB), and a single-frame send died with an opaque "frame exceeds
// max" on the provider while the user hung in Recv. The exchange is
// chunked: a fixed 16-byte header frame announces the chunk count and
// total payload size, followed by that many chunk frames, each opening
// with an 8-byte subheader (chunk index, chunk length). The receiver
// validates the header, charges the announced total against the session
// memory budget before buffering a byte, checks every chunk's index and
// length against the announcement (duplicates, reorderings and truncations
// are typed *PayloadError rejections, not silent concatenations),
// reassembles incrementally, and only then hands the bytes to the flat
// share codec (flatcodec.go).

// setupMagic opens every chunked-payload header frame ("AQ2G" — the
// historical tag, kept across the gob→flat codec switch so a mismatched
// header is reported as a framing error, not a version skew).
const setupMagic = 0x47325141

const setupHeaderLen = 16

// chunkHeaderLen is the per-chunk subheader: chunk index (uint32) and
// chunk payload length (uint32), little-endian.
const chunkHeaderLen = 8

// maxSetupPayload bounds the reassembled setup payload (4 GiB). A header
// announcing more than this is rejected before any allocation, so a
// corrupted or hostile header cannot OOM the receiver.
const maxSetupPayload = 4 << 30

// setupChunk is the per-frame budget for one chunk's payload (the
// subheader rides in the same frame, hence the headroom under the frame
// cap). It is a variable only so tests can shrink it to exercise
// multi-chunk reassembly without materialising multi-gigabyte payloads.
var setupChunk = transport.MaxFrame - chunkHeaderLen

// sendSetupBytes ships an already-encoded payload through the chunked
// setup exchange.
func sendSetupBytes(c transport.Conn, p []byte) error {
	count := (len(p) + setupChunk - 1) / setupChunk
	hdr := make([]byte, setupHeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:], setupMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(count))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(p)))
	if err := c.Send(hdr); err != nil {
		return err
	}
	idx := uint32(0)
	for off := 0; off < len(p); off += setupChunk {
		end := min(off+setupChunk, len(p))
		chunk := make([]byte, chunkHeaderLen+end-off)
		binary.LittleEndian.PutUint32(chunk[0:], idx)
		binary.LittleEndian.PutUint32(chunk[4:], uint32(end-off))
		copy(chunk[chunkHeaderLen:], p[off:end])
		if err := c.Send(chunk); err != nil {
			return err
		}
		idx++
	}
	return nil
}

// recvSetupBytes reassembles one chunked setup payload.
func recvSetupBytes(c transport.Conn) ([]byte, error) {
	hdr, err := c.Recv()
	if err != nil {
		return nil, err
	}
	if len(hdr) != setupHeaderLen || binary.LittleEndian.Uint32(hdr) != setupMagic {
		return nil, wireError("setup header frame", len(hdr), setupHeaderLen)
	}
	count := binary.LittleEndian.Uint32(hdr[4:])
	total := binary.LittleEndian.Uint64(hdr[8:])
	if total == 0 || total > maxSetupPayload {
		return nil, fmt.Errorf("engine: setup header announces %d payload bytes, outside (0, %d]", total, maxSetupPayload)
	}
	if count == 0 || uint64(count) > total {
		return nil, fmt.Errorf("engine: setup header announces %d chunks for %d bytes", count, total)
	}
	// Charge the announced total against the session memory budget before
	// buffering a single payload byte: a hostile header claiming gigabytes
	// is rejected here, not discovered at OOM time.
	if err := transport.ReserveBudget(c, total); err != nil {
		return nil, fmt.Errorf("engine: setup payload: %w", err)
	}
	// The buffer grows with the chunks actually received rather than being
	// preallocated at the announced total, so a peer that announces big and
	// sends small never costs more memory than it ships.
	var buf []byte
	for i := uint32(0); i < count; i++ {
		p, err := c.Recv()
		if err != nil {
			return nil, fmt.Errorf("engine: receiving setup chunk %d/%d: %w", i+1, count, err)
		}
		if len(p) < chunkHeaderLen {
			return nil, wireError(fmt.Sprintf("chunk %d frame length", i), len(p), chunkHeaderLen)
		}
		idx := binary.LittleEndian.Uint32(p[0:])
		clen := binary.LittleEndian.Uint32(p[4:])
		// Indices must arrive strictly in order: a duplicate, a reordering
		// or a skipped chunk would silently reassemble a corrupted payload.
		if idx != i {
			return nil, wireError("chunk index", int(idx), int(i))
		}
		body := p[chunkHeaderLen:]
		if int(clen) != len(body) {
			return nil, wireError(fmt.Sprintf("chunk %d length", i), len(body), int(clen))
		}
		if uint64(len(buf))+uint64(len(body)) > total {
			return nil, fmt.Errorf("engine: setup chunks overflow the announced %d bytes", total)
		}
		buf = append(buf, body...)
	}
	if uint64(len(buf)) != total {
		return nil, fmt.Errorf("engine: reassembled %d setup bytes, header announced %d", len(buf), total)
	}
	return buf, nil
}

// PayloadError reports a setup payload that disagrees with the public
// model architecture, or — when Wire is set — a setup exchange that
// violates the chunked wire framing or the flat codec's layout (bad
// header, out-of-order chunk index, truncated slab, oversize declared
// length). Node is the offending node id, or -1 for a framing violation.
// Like *HandshakeError it is permanent: the peer is misconfigured (or
// malicious), and retrying cannot help.
type PayloadError struct {
	Node      int
	Field     string // "weights", "bias" or the violated framing rule
	Got, Want int
	// Wire marks a framing violation of the chunked setup exchange rather
	// than a shape mismatch in a decoded payload.
	Wire bool
}

func (e *PayloadError) Error() string {
	if e.Wire {
		return fmt.Sprintf("engine: setup wire framing: %s is %d, want %d",
			e.Field, e.Got, e.Want)
	}
	return fmt.Sprintf("engine: setup payload: node %d %s share has %d elements, want %d",
		e.Node, e.Field, e.Got, e.Want)
}

// wireError builds the framing-violation variant of *PayloadError.
func wireError(field string, got, want int) *PayloadError {
	return &PayloadError{Node: -1, Field: field, Got: got, Want: want, Wire: true}
}

// validateWirePayload checks the provider's weight-share payload against
// the model's public shapes before any share reaches the executor. Every
// linear node must carry exactly K·N weight elements (GEMM layout) and a
// bias share iff the architecture declares one; entries for non-linear
// or out-of-range node ids are rejected. Without this check a
// short share surfaced later as an index panic deep inside the tiled
// GEMM — or worse, a silently wrong reveal.
func validateWirePayload(m *nn.Model, wp *WeightShares) error {
	linear := map[int]bool{}
	for _, l := range linearLayers(m) {
		i := l.Node
		linear[i] = true
		if len(wp.W[i]) != l.K*l.N {
			return &PayloadError{Node: i, Field: "weights", Got: len(wp.W[i]), Want: l.K * l.N}
		}
		wantBias := 0
		if nodeHasBias(m.Nodes[i]) {
			wantBias = l.N
		}
		if len(wp.Bias[i]) != wantBias {
			return &PayloadError{Node: i, Field: "bias", Got: len(wp.Bias[i]), Want: wantBias}
		}
	}
	// Any other entry must be an empty one of an in-range node.
	stray := func(id, n int) bool { return !linear[id] && (n != 0 || id < 0 || id >= len(m.Nodes)) }
	for id, w := range wp.W {
		if stray(id, len(w)) {
			return &PayloadError{Node: id, Field: "weights", Got: len(w), Want: 0}
		}
	}
	for id, b := range wp.Bias {
		if stray(id, len(b)) {
			return &PayloadError{Node: id, Field: "bias", Got: len(b), Want: 0}
		}
	}
	return nil
}

func nodeHasBias(node nn.Node) bool {
	switch op := node.Op.(type) {
	case *nn.Conv:
		return op.Bias != nil
	case *nn.FC:
		return op.Bias != nil
	}
	return false
}
