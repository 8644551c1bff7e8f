package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/transport"
)

// frameCapConn enforces the transport frame cap on an in-memory pipe the
// way netConn does on real TCP, so chunking tests fail exactly where the
// pre-chunking code failed in production.
type frameCapConn struct {
	transport.Conn
	frames int
}

func (c *frameCapConn) Send(p []byte) error {
	if len(p) > transport.MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds MaxFrame", len(p))
	}
	c.frames++
	return c.Conn.Send(p)
}

func mustEncodeShares(t testing.TB, ws *WeightShares, width int) []byte {
	t.Helper()
	p, err := encodeShares(ws, width)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSetupChunkingReassembly(t *testing.T) {
	saved := setupChunk
	setupChunk = 1 << 10
	defer func() { setupChunk = saved }()
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	in := WeightShares{
		W:    map[int][]uint64{0: make([]uint64, 9000), 3: {1, 2, 3}, 5: make([]uint64, 5000)},
		Bias: map[int][]uint64{0: {7, 8}},
	}
	for i := range in.W[0] {
		in.W[0][i] = ^uint64(i)
	}
	fc := &frameCapConn{Conn: a}
	if err := sendSetupBytes(fc, mustEncodeShares(t, &in, 8)); err != nil {
		t.Fatal(err)
	}
	if fc.frames < 10 {
		t.Errorf("payload crossed in %d frames, expected many 1 KiB chunks", fc.frames)
	}
	out, err := recvShares(b, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.W[0]) != 9000 || out.W[0][77] != in.W[0][77] || len(out.W[5]) != 5000 || out.Bias[0][1] != 8 {
		t.Error("chunked payload did not survive the round trip")
	}
}

// TestSetupPayloadBeyondMaxFrame is the regression test for the original
// bug: a weight-share payload whose encoding exceeds transport.MaxFrame
// (64 MiB). A single-frame send returned "frame exceeds MaxFrame" on the
// provider while the user hung in Recv; chunking must move it
// transparently with every frame under the cap.
func TestSetupPayloadBeyondMaxFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates several 70 MiB buffers")
	}
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	// At the full 8-byte element width, 9M elements encode to 72 MiB,
	// beyond the 64 MiB frame cap.
	big := make([]uint64, 9<<20)
	for i := range big {
		big[i] = ^uint64(0) - uint64(i)
	}
	fc := &frameCapConn{Conn: a}
	if err := sendSetupBytes(fc, mustEncodeShares(t, &WeightShares{W: map[int][]uint64{0: big}}, 8)); err != nil {
		t.Fatalf("sending >MaxFrame payload: %v", err)
	}
	if fc.frames < 3 { // header + at least two chunks
		t.Errorf("payload crossed in %d frames, expected header plus ≥2 chunks", fc.frames)
	}
	out, err := recvShares(b, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.W[0]; len(got) != len(big) || got[0] != big[0] || got[len(big)-1] != big[len(big)-1] {
		t.Error("oversized payload corrupted in transit")
	}
}

func TestRecvSetupRejectsBadHeader(t *testing.T) {
	for _, tc := range []struct {
		name string
		hdr  []byte
	}{
		{"garbage frame", []byte("not a header")},
		{"zero total", func() []byte {
			p := make([]byte, setupHeaderLen)
			p[0], p[1], p[2], p[3] = 'A', 'Q', '2', 'G'
			p[4] = 1 // count 1, total 0
			return p
		}()},
		{"count exceeds total", func() []byte {
			p := make([]byte, setupHeaderLen)
			p[0], p[1], p[2], p[3] = 'A', 'Q', '2', 'G'
			p[4], p[5] = 0xFF, 0xFF // count 65535
			p[8] = 4                // total 4 bytes
			return p
		}()},
	} {
		a, b := transport.Pipe()
		if err := a.Send(tc.hdr); err != nil {
			t.Fatal(err)
		}
		if _, err := recvSetupBytes(b); err == nil {
			t.Errorf("%s: recvSetupBytes accepted a malformed header", tc.name)
		}
		a.Close()
		b.Close()
	}
}

func TestValidateWirePayload(t *testing.T) {
	m, err := nn.ByName("micro", nn.ZooConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	r := ring.New(20)
	good := func() *WeightShares {
		ws0, _, err := SplitModel(prg.NewSeeded(3), m, r)
		if err != nil {
			t.Fatal(err)
		}
		return ws0
	}
	if err := validateWirePayload(m, good()); err != nil {
		t.Fatalf("well-formed payload rejected: %v", err)
	}
	linear := -1
	for i, node := range m.Nodes {
		if _, _, ok := LinearDims(node); ok {
			linear = i
			break
		}
	}
	if linear < 0 {
		t.Fatal("micro has no linear node")
	}
	cases := []struct {
		name   string
		mutate func(*WeightShares)
		node   int
		field  string
	}{
		{"truncated weights", func(wp *WeightShares) { wp.W[linear] = wp.W[linear][:len(wp.W[linear])-1] }, linear, "weights"},
		{"missing weights", func(wp *WeightShares) { delete(wp.W, linear) }, linear, "weights"},
		{"oversized bias", func(wp *WeightShares) { wp.Bias[linear] = append(wp.Bias[linear], 1) }, linear, "bias"},
		{"unknown node id", func(wp *WeightShares) { wp.W[len(m.Nodes)+7] = []uint64{1} }, len(m.Nodes) + 7, "weights"},
	}
	for _, tc := range cases {
		wp := good()
		tc.mutate(wp)
		err := validateWirePayload(m, wp)
		var pe *PayloadError
		if !errors.As(err, &pe) {
			t.Errorf("%s: got %v, want *PayloadError", tc.name, err)
			continue
		}
		if pe.Node != tc.node || pe.Field != tc.field {
			t.Errorf("%s: PayloadError{Node:%d, Field:%q}, want node %d field %q", tc.name, pe.Node, pe.Field, tc.node, tc.field)
		}
		if transport.IsTransient(err) {
			t.Errorf("%s: payload errors must be permanent, IsTransient said retryable", tc.name)
		}
	}
}

// TestOpenRejectsMalformedPayload drives the validation through the real
// session open: a provider that sends a truncated weight share must
// produce a typed *PayloadError on the user before any share reaches the
// executor.
func TestOpenRejectsMalformedPayload(t *testing.T) {
	m := tinyModel(nn.PoolAvg)
	r := ring.New(20)
	ws0, _, err := SplitModel(prg.NewSeeded(3), m, r)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ws0.W {
		ws0.W[i] = ws0.W[i][:len(ws0.W[i])-1] // truncate one share
		break
	}
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	cfg := Options{CarrierBits: 20, Seed: 4}
	payload := mustEncodeShares(t, ws0, r.Bytes())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Hand-rolled malicious provider: swallow the pipelined hello and
		// attach, answer both validly, then ship the bad payload.
		for i := 0; i < 2; i++ {
			if _, err := b.Recv(); err != nil {
				return
			}
		}
		mine := helloFor(roleProvider, m, r, cfg)
		mine.Flags |= flagSession
		if b.Send(mine.encode()) != nil || b.Send(encodeAttach(attachRespMagic, attachFrame{})) != nil {
			return
		}
		_ = sendSetupBytes(b, payload)
	}()
	_, err = NewClient(over(a), cfg).OpenSession(context.Background(), m)
	wg.Wait()
	var pe *PayloadError
	if !errors.As(err, &pe) {
		t.Fatalf("OpenSession returned %v, want *PayloadError", err)
	}
	if pe.Field != "weights" || !strings.Contains(err.Error(), "setup payload") {
		t.Errorf("unexpected payload error %v", err)
	}
}
