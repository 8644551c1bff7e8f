// Package preproc is the asynchronous preprocessing plane: it generates
// the Beaver-triple material of a persistent session's linear layers
// *ahead of demand*, so the steady-state online path only consumes.
//
// Both parties must hold matching correlations, so the plane runs the
// existing interactive Gilboa/IKNP protocols over a dedicated
// preprocessing stream (a substream multiplexed onto the session
// connection, negotiated at session open) with one background filler
// goroutine per party, kept in lockstep by a demand/ack subprotocol:
//
//	client                              provider
//	  demand(seq)  ───────────────▶       (validate seq order)
//	  ⟵──── interactive Gilboa generation for every linear layer ────⟶
//	                                      commit kit to store
//	       ◀─────────────────────       ack(seq)
//	  commit kit to bank
//
// The ack ordering carries the plane's one invariant: the provider
// commits before acking and the client commits only after the ack, so a
// client-side kit always has a matching provider-side kit — a warm
// inference request can never miss on the provider. Every filler random
// stream derives from the session's (Seed, seq) contract via salted
// per-purpose streams (see engine's preprocGen), so a precomputed kit is
// bit-identical to what the inline cold path would have generated:
// warm-bank and cold-bank inferences produce byte-identical logits.
//
// The plane degrades, never blocks, under faults: a filler that dies
// (transport fault, corrupted frame, peer teardown) closes its substream
// — unblocking the peer's filler — and marks its bank dead, after which
// the online path falls back to synchronous inline generation.
package preproc

import (
	"encoding/binary"
	"fmt"

	"aq2pnn/internal/ot"
	"aq2pnn/internal/triple"
)

// MaxDepth bounds the configured bank depth and the provider's store: the
// plane never holds more than this many inference kits ahead of
// consumption per party. The two parties consume in lockstep, so a deeper
// backlog would mean a protocol-order bug (or a hostile client), not a
// legitimate working set.
const MaxDepth = 256

// Kit is the correlated material for one inference seq: one family triple
// per linear node, and the fill plane whose base state made them. The
// seq's online OT endpoint derives from that plane (ot.OnlineHalf), so a
// warm inference runs no public-key set-up and no bootstrap.
type Kit struct {
	Seq   uint32
	Mats  map[int]*triple.Mat // node index → this party's triple share
	Plane *ot.Plane           // shared by every kit of the plane, read-only
}

// Fill-subprotocol frame magics, following the engine's AQ2x family.
var (
	demandMagic = [4]byte{'A', 'Q', '2', 'D'}
	ackMagic    = [4]byte{'A', 'Q', '2', 'K'}
)

const frameLen = 8 // magic ·4  seq ·4

func encodeFrame(magic [4]byte, seq uint32) []byte {
	p := make([]byte, frameLen)
	copy(p, magic[:])
	binary.LittleEndian.PutUint32(p[4:], seq)
	return p
}

// decodeFrame parses a fill-subprotocol frame under strict framing:
// exactly frameLen bytes opening with the expected magic. Violations are
// permanent errors (transport.IsTransient classifies unknown errors as
// such), so a desynchronised or hostile peer kills the plane, not the
// session.
func decodeFrame(magic [4]byte, what string, p []byte) (uint32, error) {
	if len(p) != frameLen {
		return 0, fmt.Errorf("preproc: %s frame length %d, want %d", what, len(p), frameLen)
	}
	if [4]byte(p[:4]) != magic {
		return 0, fmt.Errorf("preproc: %s frame magic %#x, want %#x",
			what, binary.LittleEndian.Uint32(p[:4]), binary.LittleEndian.Uint32(magic[:]))
	}
	return binary.LittleEndian.Uint32(p[4:]), nil
}
