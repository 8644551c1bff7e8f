package ot

import (
	"bytes"
	"crypto/aes"
	"crypto/subtle"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"sync"
	"testing"

	"aq2pnn/internal/parallel"
	"aq2pnn/internal/prg"
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

// digestConn digests every frame crossing one party's end of a pipe, one
// chain per direction. Only that party's goroutine touches it.
type digestConn struct {
	transport.Conn
	sent, recv frameDigest
}

func (c *digestConn) Send(p []byte) error {
	c.sent.add(p)
	return c.Conn.Send(p)
}

func (c *digestConn) Recv() ([]byte, error) {
	p, err := c.Conn.Recv()
	if err == nil {
		c.recv.add(p)
	}
	return p, err
}

// both runs the two parties' halves of one protocol step concurrently.
func both(t *testing.T, p0, p1 func() error) {
	t.Helper()
	var wg sync.WaitGroup
	var e0, e1 error
	wg.Add(2)
	go func() { defer wg.Done(); e0 = p0() }()
	go func() { defer wg.Done(); e1 = p1() }()
	wg.Wait()
	if e0 != nil || e1 != nil {
		t.Fatal(e0, e1)
	}
}

// TestOTTranscriptPinned pins the OT plane byte for byte: the wire of an
// IKNP set-up and four Extend calls (whose u-matrix does not depend on the
// row transpose or the row hash, so the minted seeds are digested too),
// then extension-backed Send1ofN/Recv1ofN batches at message lengths on
// both sides of the one-block pad and of the PRG's 8 KiB block, in both
// directions. The endpoints' first direction runs the public-key flow and
// the second bootstraps from κ OTs extended in the first. The constants
// were last re-captured when the flow's blinding became multiplicative
// (R frame and ciphertext content changed) and the second direction's
// public-key set-up became that bootstrap (its three flow frames became
// one u-matrix frame); the minted digest did not move. They must never
// move without a deliberate wire change. Every loop runs on a
// GOMAXPROCS-sized pool, so `go test -cpu 1,4,8` checks that the
// constants do not depend on the worker count.
func TestOTTranscriptPinned(t *testing.T) {
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	dc := &digestConn{Conn: a}
	var minted frameDigest
	pool := parallel.New(0)

	var s *ExtSender
	var r *ExtReceiver
	both(t,
		func() (err error) { s, err = NewExtSender(dc, TestGroup(), prg.NewSeeded(101), ExtKappa); return },
		func() (err error) { r, err = NewExtReceiver(b, TestGroup(), prg.NewSeeded(102), ExtKappa); return })
	for _, m := range []int{1, 7, 64, 1000} {
		var si [][SeedLen]byte
		var ri []RecvInst
		both(t,
			func() (err error) { si, err = s.extend(pool, domStock, m); return },
			func() (err error) { ri, err = r.extend(pool, domStock, m); return })
		for j := range ri {
			minted.add(append(si[2*j][:], si[2*j+1][:]...))
			minted.add(append([]byte{byte(ri[j].Choice)}, ri[j].Seed[:]...))
		}
	}

	e0 := NewEndpoint(0, dc, prg.NewSeeded(103))
	e1 := NewEndpoint(1, b, prg.NewSeeded(104))
	for _, e := range []*Endpoint{e0, e1} {
		e.HarvestGroup = TestGroup()
		e.UseExtension = true
		e.Pool = pool
	}
	g := prg.NewSeeded(105)
	for _, msgLen := range []int{8, 16, 17, 32, 240, 8192, 8200} {
		for _, dir := range []struct {
			n        int
			snd, rcv *Endpoint
		}{{2, e0, e1}, {4, e1, e0}} {
			msgs := make([][][]byte, 3)
			choices := make([]int, len(msgs))
			for k := range msgs {
				msgs[k] = make([][]byte, dir.n)
				for l := range msgs[k] {
					msgs[k][l] = make([]byte, msgLen)
					g.Read(msgs[k][l])
				}
				choices[k] = g.Intn(dir.n)
			}
			var got []byte
			both(t,
				func() error { return dir.snd.Send1ofN(dir.n, msgLen, flatten(msgs)) },
				func() (err error) { got, err = dir.rcv.Recv1ofN(dir.n, choices, msgLen); return })
			for k := range msgs {
				if !bytes.Equal(got[k*msgLen:(k+1)*msgLen], msgs[k][choices[k]]) {
					t.Fatalf("msgLen %d, N=%d, instance %d: wrong message", msgLen, dir.n, k)
				}
			}
		}
	}

	for _, c := range []struct {
		name   string
		got    frameDigest
		sum    uint64
		frames int
	}{
		{"sent", dc.sent, 0x272cc7d8833016b6, 17},
		{"recv", dc.recv, 0x73cc70956576fe37, 24},
		{"minted", minted, 0x8fc56f3fde4f2975, 2144},
	} {
		if c.got.sum != c.sum || c.got.frames != c.frames {
			t.Errorf("%s digest %#x over %d frames, want %#x over %d", c.name, c.got.sum, c.got.frames, c.sum, c.frames)
		}
	}
}

// TestPoolMatchesSerial runs a large and a small batch — every pooled loop
// (column expansion, row hashing, both combiners, both pad loops) splits —
// on a serial and on pooled endpoint pairs, including a degree that does
// not divide the batch and one above it, and requires identical frames and
// outputs.
func TestPoolMatchesSerial(t *testing.T) {
	run := func(pool *parallel.Pool) [3]frameDigest {
		a, b := transport.Pipe()
		defer a.Close()
		defer b.Close()
		dc := &digestConn{Conn: a}
		e0, e1 := NewEndpoint(0, dc, prg.NewSeeded(111)), NewEndpoint(1, b, prg.NewSeeded(112))
		for _, e := range []*Endpoint{e0, e1} {
			e.HarvestGroup = TestGroup()
			e.UseExtension = true
			e.Pool = pool
		}
		g := prg.NewSeeded(113)
		var got frameDigest
		for _, dir := range []struct {
			n, insts, msgLen int
			snd, rcv         *Endpoint
		}{{2, 1500, 20, e0, e1}, {8, 7, 3, e1, e0}} {
			msgs := make([][][]byte, dir.insts)
			choices := make([]int, dir.insts)
			for k := range msgs {
				msgs[k] = make([][]byte, dir.n)
				for l := range msgs[k] {
					msgs[k][l] = make([]byte, dir.msgLen)
					g.Read(msgs[k][l])
				}
				choices[k] = g.Intn(dir.n)
			}
			var out []byte
			both(t,
				func() error { return dir.snd.Send1ofN(dir.n, dir.msgLen, flatten(msgs)) },
				func() (err error) { out, err = dir.rcv.Recv1ofN(dir.n, choices, dir.msgLen); return })
			for k := range msgs {
				m := out[k*dir.msgLen : (k+1)*dir.msgLen]
				if !bytes.Equal(m, msgs[k][choices[k]]) {
					t.Fatalf("N=%d instance %d: wrong message", dir.n, k)
				}
				got.add(m)
			}
		}
		return [3]frameDigest{dc.sent, dc.recv, got}
	}
	want := run(nil)
	for _, w := range []uint{2, 3, 8} {
		if got := run(parallel.New(w)); got != want {
			t.Errorf("pool of %d: digests %v, serial %v", w, got, want)
		}
	}
}

// TestPadKnownAnswer pins the pad to its definition, recomputed here from
// crypto/aes and the fixed key alone, at lengths on both sides of one
// block: up to 16 bytes the pad is the seed itself; past that, block b is
// π(π(seed) ⊕ tw_b) ⊕ π(seed), where π is AES-128 under the fixed key and
// tw_b holds b little-endian in bytes 0–7 and the pad tag 3 in byte 15.
func TestPadKnownAnswer(t *testing.T) {
	key, _ := hex.DecodeString("243f6a8885a308d313198a2e03707344")
	pi, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	g := prg.NewSeeded(106)
	for _, l := range []int{1, 15, 16, 17, 32, 240, 8200} {
		var seed [SeedLen]byte
		g.Read(seed[:])
		want := append([]byte(nil), seed[:min(l, SeedLen)]...)
		if l > SeedLen {
			want = want[:0]
			ps := make([]byte, aes.BlockSize)
			pi.Encrypt(ps, seed[:])
			for b := uint64(0); len(want) < l; b++ {
				blk := make([]byte, aes.BlockSize)
				binary.LittleEndian.PutUint64(blk, b)
				blk[15] = 3
				subtle.XORBytes(blk, blk, ps)
				pi.Encrypt(blk, blk)
				subtle.XORBytes(blk, blk, ps)
				want = append(want, blk...)
			}
			want = want[:l]
		}
		got := make([]byte, l)
		PadInto(got, seed)
		if !bytes.Equal(got, want) {
			t.Errorf("PadInto(%d bytes) differs from the fixed-key definition", l)
		}
	}
}
