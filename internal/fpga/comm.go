// Package fpga models the AQ2PNN accelerator of Fig. 1: the INST Q
// instruction stream, the AS-GEMM array's cycle behaviour, the Sec-COMM
// module's A2BM/SCM units, the on-chip buffers, the ZCU104 resource
// footprint (Table 3) and the board power. The compiled INST Q program is
// the one cost model: its instructions carry the cycles, and its EXCH
// instructions the wire bytes and rounds, behind the latency, throughput
// and energy numbers of Tables 4, 5, 7 and 8.
package fpga

import (
	"aq2pnn/internal/a2b"
	"aq2pnn/internal/ring"
)

// The wire model of the online protocol. Every protocol step is written as
// the frames party i (the user, whose endpoint the engine profiles) sends
// and receives, in order, so an EXCH instruction's bytes are the sum of its
// frames and its rounds are the send→recv turns among them — the way
// transport.Stats counts both. The frame sizes follow the wire formats of
// internal/transport (ring elements at ⌈ℓ/8⌉ bytes), internal/ot (one
// shift byte per 1-of-2 instance; coalesced token transfers bit-packed per
// frame) and internal/scm, and a test pins the result to the measured
// per-node traffic.

// frame is one message at party i's endpoint.
type frame struct {
	send  bool
	bytes int
}

// tokenBits is the packed width of one comparison token on the wire
// (the {LT, EQ, GT} alphabet fits two bits), matching internal/scm.
const tokenBits = 2

// openFrames opens a masked n-element tensor: party i sends its share
// first, then receives its peer's.
func openFrames(n int, r ring.Ring) []frame {
	return []frame{{true, n * r.Bytes()}, {false, n * r.Bytes()}}
}

// otSendFrames serves n 1-of-2 OTs with ring-element messages from party
// i: it receives one shift byte per instance and answers with both masked
// candidates (B2A, and the first half of the multiplexer).
func otSendFrames(n int, r ring.Ring) []frame {
	return []frame{{false, n}, {true, 2 * n * r.Bytes()}}
}

// otRecvFrames is the mirror image: party i chooses in n 1-of-2 OTs.
func otRecvFrames(n int, r ring.Ring) []frame {
	return []frame{{true, n}, {false, 2 * n * r.Bytes()}}
}

// tokenFrames is one coalesced SCM token transfer over n elements split
// into groups of the given widths, party i sending the tokens: it receives
// every instance's w-bit shift in one frame and answers with the 2^w
// candidate tokens per group in another, each frame bit-packed and padded
// to a whole byte.
func tokenFrames(n int, widths []uint) []frame {
	var shiftBits, tokBits int
	for _, w := range widths {
		shiftBits += int(w)
		tokBits += (1 << w) * tokenBits
	}
	return []frame{{false, (n*shiftBits + 7) / 8}, {true, (n*tokBits + 7) / 8}}
}

// abreluFrames is ABReLU over n elements: the sign tokens over the low
// ℓ−1 bits (the sign bits ride the quadrant XOR), then the OT multiplexer,
// party i serving its term before choosing in its peer's.
func abreluFrames(n int, r ring.Ring) []frame {
	f := tokenFrames(n, a2b.LowGroups(r.Bits))
	f = append(f, otSendFrames(n, r)...)
	return append(f, otRecvFrames(n, r)...)
}

// truncFrames is the faithful truncation of n elements: the wrap-bit
// comparison over the full width, then its B2A.
func truncFrames(n int, r ring.Ring) []frame {
	return append(tokenFrames(n, a2b.Groups(r.Bits)), otSendFrames(n, r)...)
}

// revealFrames opens n output elements to party i.
func revealFrames(n int, r ring.Ring) []frame {
	return []frame{{false, n * r.Bytes()}}
}

// CommProfile is the online traffic of one inference at party i's
// endpoint: both directions summed, matching the engine's measured
// Result.Online, and the protocol rounds.
type CommProfile struct {
	Bytes  uint64
	Rounds uint64
}
