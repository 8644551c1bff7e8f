package engine

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"sync"
	"testing"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/transport"
)

// frameDigest chains an FNV-64a over a stream of frames: each step hashes
// the previous digest followed by the frame, so the result pins both the
// content and the order.
type frameDigest struct {
	sum    uint64
	frames int
}

func (d *frameDigest) add(p []byte) {
	h := fnv.New64a()
	var prev [8]byte
	binary.LittleEndian.PutUint64(prev[:], d.sum)
	h.Write(prev[:])
	h.Write(p)
	d.sum = h.Sum64()
	d.frames++
}

// transcriptConn digests every frame crossing the client's dialed conn,
// one chain per direction. With mainOnly (a muxed session) the frames past
// the hello and attach are folded in only when they carry mux stream 0
// payload: how many kits the fill stream runs before Close depends on
// timing, and so does the order of the teardown close controls.
type transcriptConn struct {
	transport.Conn
	mainOnly bool

	mu         sync.Mutex
	seenSent   int
	seenRecv   int
	sent, recv frameDigest
}

func (c *transcriptConn) keep(seen int, p []byte) bool {
	return !c.mainOnly || seen <= 2 || (len(p) > 0 && p[0] == transport.StreamMain)
}

func (c *transcriptConn) Send(p []byte) error {
	c.mu.Lock()
	c.seenSent++
	if c.keep(c.seenSent, p) {
		c.sent.add(p)
	}
	c.mu.Unlock()
	return c.Conn.Send(p)
}

func (c *transcriptConn) Recv() ([]byte, error) {
	p, err := c.Conn.Recv()
	if err == nil {
		c.mu.Lock()
		c.seenRecv++
		if c.keep(c.seenRecv, p) {
			c.recv.add(p)
		}
		c.mu.Unlock()
	}
	return p, err
}

// TestSessionTranscriptPinned pins the client's wire transcript, byte for
// byte, for one session of three inferences — cold (inline generation) and
// warm (banked kits, main stream only) — at the default worker count and at
// Workers = 1 and 4. The constants were last re-captured when
// the base-OT flow's blinding became multiplicative (content changed) and
// each OT endpoint came to run one public-key set-up at most: a cold seq's
// second set-up became a κ-OT bootstrap (six flow frames per seq became
// four) and a warm seq starts from its kit's base OTs (six became one).
// The warm rows were re-captured once more when a warm seq's OT endpoint
// came to draw on a stream of its own, apart from its cold retry's (same
// frames, new content). All rows were re-captured when the convolution's
// triples came to be built from fixed-choice session seeds: the cold open
// gained the seed OTs and each cold seq's Gilboa OTs became one correction
// frame each way (74/75 frames became 68/79); the warm rows kept their
// frames, and their content moved with the Z shares and the protocol
// generation in the hello. Both moved again, frames unchanged, when bit
// t's corrections came to travel in the bytes of their ℓ−t bits. They
// were last re-captured when every kit and every cold seq came to derive
// its OT endpoint from its plane's one base-OT set-up (ot.Plane): a cold
// seq's public-key flow and bootstrap frame went (68/79 frames became
// 65/70), and the warm rows kept their frames but moved in content, since
// a kit's minted base OTs now come from an endpoint derived from the
// fill stream's plane. The same change raised the protocol generation
// in the hello to 7, which moved every row's content once more. The warm
// rows were re-captured when a warm seq's endpoint came to be derived
// from its kit's fill plane instead of starting from minted base OTs: its
// online bootstrap frame went, one per seq (50/54 frames became 47/54).
// The same change raised the protocol generation to 8, which moved every
// row's content and no frame count. They do not depend on the worker
// count; the benchmark checks byte counts, this checks byte content.
func TestSessionTranscriptPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked sessions")
	}
	for _, tc := range []struct {
		name                   string
		bankDepth              int
		workers                uint
		sent, recv             uint64
		sentFrames, recvFrames int
	}{
		{"cold", 0, 0, 0xe7b2496abf41a447, 0x37e0e0fe5646b4f8, 65, 70},
		{"warm", 2, 0, 0x66de5f494fd6ed94, 0x70ae2eb69f0915c4, 47, 54},
		{"cold_workers1", 0, 1, 0xe7b2496abf41a447, 0x37e0e0fe5646b4f8, 65, 70},
		{"warm_workers1", 2, 1, 0x66de5f494fd6ed94, 0x70ae2eb69f0915c4, 47, 54},
		{"cold_workers4", 0, 4, 0xe7b2496abf41a447, 0x37e0e0fe5646b4f8, 65, 70},
		{"warm_workers4", 2, 4, 0x66de5f494fd6ed94, 0x70ae2eb69f0915c4, 47, 54},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tinyModel(nn.PoolAvg)
			cfg := testCfg()
			cfg.BankDepth = tc.bankDepth
			cfg.Workers = tc.workers
			h := newSessionHarness(t, m, cfg)
			var tc0 *transcriptConn
			h.wrap = func(_ int, c transport.Conn) transport.Conn {
				tc0 = &transcriptConn{Conn: c, mainOnly: tc.bankDepth > 0}
				return tc0
			}
			s, err := NewClient(h.dial, cfg).OpenSession(context.Background(), m)
			if err != nil {
				t.Fatalf("OpenSession: %v", err)
			}
			if tc.bankDepth > 0 && !s.WarmupPreproc(2) {
				t.Fatal("preprocessing plane died during warm-up")
			}
			for i := 0; i < 3; i++ {
				if _, err := s.Infer(context.Background(), input(64)); err != nil {
					t.Fatalf("inference %d: %v", i, err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			h.wg.Wait()
			tc0.mu.Lock()
			defer tc0.mu.Unlock()
			if tc0.sent.sum != tc.sent || tc0.sent.frames != tc.sentFrames {
				t.Errorf("sent transcript %#x over %d frames, want %#x over %d", tc0.sent.sum, tc0.sent.frames, tc.sent, tc.sentFrames)
			}
			if tc0.recv.sum != tc.recv || tc0.recv.frames != tc.recvFrames {
				t.Errorf("recv transcript %#x over %d frames, want %#x over %d", tc0.recv.sum, tc0.recv.frames, tc.recv, tc.recvFrames)
			}
		})
	}
}
