package engine

import (
	"encoding/binary"
	"io"
	"reflect"
	"testing"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/transport"
)

// scriptConn replays a fixed sequence of frames to the receiver and
// swallows sends — the engine-layer view of an arbitrary hostile peer.
type scriptConn struct {
	frames [][]byte
}

func (s *scriptConn) Send(p []byte) error { return nil }
func (s *scriptConn) Recv() ([]byte, error) {
	if len(s.frames) == 0 {
		return nil, io.EOF
	}
	p := s.frames[0]
	s.frames = s.frames[1:]
	return p, nil
}
func (s *scriptConn) Stats() transport.Stats { return transport.Stats{} }
func (s *scriptConn) ResetStats()            {}
func (s *scriptConn) Close() error           { return nil }

// splitFrames carves fuzz data into frames: a 4-byte little-endian length
// prefix (clamped to the remaining bytes) before each frame. This gives
// the fuzzer structural control over frame boundaries — the axis the
// chunked setup protocol validates — without ever allocating beyond the
// input it already holds.
func splitFrames(data []byte) [][]byte {
	var frames [][]byte
	for len(data) >= 4 {
		n := int(binary.LittleEndian.Uint32(data)) % (len(data) - 4 + 1)
		frames = append(frames, data[4:4+n])
		data = data[4+n:]
	}
	return frames
}

// joinFrames is the inverse of splitFrames, used to build seed corpora
// from real protocol transcripts.
func joinFrames(frames [][]byte) []byte {
	var out []byte
	for _, p := range frames {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(p)))
		out = append(out, hdr[:]...)
		out = append(out, p...)
	}
	return out
}

// collectConn records every frame sendSetupBytes emits, for seed
// construction.
type collectConn struct {
	scriptConn
	sent [][]byte
}

func (c *collectConn) Send(p []byte) error {
	c.sent = append(c.sent, append([]byte(nil), p...))
	return nil
}

// FuzzRecvSetup feeds arbitrary frame sequences to the chunked setup
// receiver: whatever the header and chunk subheaders declare,
// recvSetupBytes must reject cleanly (typed error), never panic, and never
// buffer more than the announced total.
func FuzzRecvSetup(f *testing.F) {
	// Seed with a genuine transcript so the fuzzer starts from the valid
	// wire shape, plus targeted corruptions of it.
	col := &collectConn{}
	seed := &WeightShares{W: map[int][]uint64{0: {1, 2, 3, 4}}}
	if err := sendSetupBytes(col, mustEncodeShares(f, seed, 2)); err != nil {
		f.Fatal(err)
	}
	f.Add(joinFrames(col.sent))
	if len(col.sent) >= 2 {
		trunc := [][]byte{col.sent[0]} // header without its chunks
		f.Add(joinFrames(trunc))
		swapped := [][]byte{col.sent[0], append([]byte{1, 0, 0, 0}, col.sent[1][4:]...)} // wrong chunk index
		f.Add(joinFrames(swapped))
	}
	giant := make([]byte, setupHeaderLen)
	binary.LittleEndian.PutUint32(giant, setupMagic)
	binary.LittleEndian.PutUint32(giant[4:], 1)
	binary.LittleEndian.PutUint64(giant[8:], maxSetupPayload) // announce 4 GiB
	f.Add(joinFrames([][]byte{giant}))
	f.Add([]byte("not a frame stream"))
	f.Fuzz(func(t *testing.T, data []byte) {
		conn := &scriptConn{frames: splitFrames(data)}
		_, _ = recvSetupBytes(conn) // must not panic; errors are the expected outcome
	})
}

// FuzzHandshakeHello checks the hello decoder: arbitrary bytes never
// panic, and any hello it accepts survives an encode→decode roundtrip
// unchanged (the decoder reads exactly the fields the encoder writes).
func FuzzHandshakeHello(f *testing.F) {
	m := tinyModel(nn.PoolAvg)
	r := carrierOf(Options{CarrierBits: 20}, m)
	f.Add(helloFor(roleUser, m, r, Options{CarrierBits: 20}).encode())
	f.Add(busyFrame())
	f.Add([]byte("AQ2S"))
	f.Add(make([]byte, helloLen))
	f.Add(append([]byte("AQ2S"), make([]byte, helloLen)...)) // trailing garbage
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeHello(data)
		if err != nil {
			return
		}
		h2, err := decodeHello(h.encode())
		if err != nil {
			t.Fatalf("re-decoding an accepted hello failed: %v", err)
		}
		if h2 != h {
			t.Fatalf("hello roundtrip mismatch: %+v vs %+v", h, h2)
		}
	})
}

// FuzzShareCodec decodes arbitrary bytes as a flat share payload at every
// element width and runs shape validation: hostile payloads must be
// rejected with a typed error, never a panic; any accepted payload must
// survive a canonical re-encode→decode roundtrip unchanged.
func FuzzShareCodec(f *testing.F) {
	m := tinyModel(nn.PoolAvg)
	valid := mustEncodeShares(f, &WeightShares{
		W:    map[int][]uint64{0: {1, 2}},
		Bias: map[int][]uint64{0: {3}},
	}, 2)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])                         // truncated: the input flag is missing
	f.Add(append(valid[:len(valid)-1:len(valid)-1], 1)) // input flag set: the retired input slab
	oversize := append([]byte(nil), valid...)           // oversize declared length:
	binary.LittleEndian.PutUint32(oversize[16:], 1<<30) // first W entry claims 2^30 elements
	f.Add(oversize)
	f.Add([]byte{})
	f.Add([]byte("garbage that is not a flat payload"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for width := 1; width <= 8; width++ {
			wp, err := decodeShares(data, width)
			if err != nil {
				if _, ok := err.(*PayloadError); !ok {
					t.Fatalf("width %d: rejection is %T (%v), want *PayloadError", width, err, err)
				}
				continue
			}
			_ = validateWirePayload(m, wp) // must not panic
			p2, err := encodeShares(wp, width)
			if err != nil {
				t.Fatalf("width %d: re-encoding an accepted payload failed: %v", width, err)
			}
			wp2, err := decodeShares(p2, width)
			if err != nil {
				t.Fatalf("width %d: re-decoding the canonical form failed: %v", width, err)
			}
			if !reflect.DeepEqual(wp, wp2) {
				t.Fatalf("width %d: roundtrip mismatch", width)
			}
		}
	})
}
