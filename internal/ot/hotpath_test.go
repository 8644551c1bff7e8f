package ot

import (
	"bytes"
	"testing"
	"time"

	"aq2pnn/internal/prg"
	"aq2pnn/internal/transport"
)

// naiveTranspose is the bit-by-bit definition transposeBits must match.
func naiveTranspose(cols []byte, kappa, m int) []byte {
	nBytes, rowLen := (m+7)/8, kappa/8
	rows := make([]byte, m*rowLen)
	for j := 0; j < m; j++ {
		for i := 0; i < kappa; i++ {
			rows[j*rowLen+i/8] |= bitOf(cols[i*nBytes:(i+1)*nBytes], j) << (i % 8)
		}
	}
	return rows
}

func TestTransposeBitsMatchesBitwise(t *testing.T) {
	g := prg.NewSeeded(41)
	for _, kappa := range []int{8, 64, ExtKappa} {
		for _, m := range []int{1, 7, 8, 9, 63, 64, 65, 1000} {
			cols := make([]byte, kappa*((m+7)/8))
			g.Read(cols)
			rows := make([]byte, m*kappa/8)
			for i := range rows {
				rows[i] = 0xA5 // every row byte must be overwritten
			}
			transposeBits(rows, cols, kappa, m)
			if !bytes.Equal(rows, naiveTranspose(cols, kappa, m)) {
				t.Errorf("κ=%d m=%d: block transpose differs from the bitwise one", kappa, m)
			}
		}
	}
}

var (
	seedSink [SeedLen]byte
	byteSink byte
)

// TestOTHotPathAllocs is the OT plane's allocation gate, mirroring
// TestHotKernelsAllocFree: the IKNP transpose writes into caller-owned
// rows, and the row hashes, both combiners and the pads stage their
// batches in a reused hasher, so in the forms the hot loops call them none
// of them allocates. A 1-byte pad is a token's (read through shortPad, with
// no hasher), 16 bytes an online share's, 240 bytes an fc1 Gilboa
// message's on a 16-bit ring, and 8,200 bytes spans many staging batches.
func TestOTHotPathAllocs(t *testing.T) {
	const m = 1000
	g := prg.NewSeeded(42)
	cols := make([]byte, ExtKappa*((m+7)/8))
	g.Read(cols)
	rows := make([]byte, m*ExtKappa/8)
	delta := make([]byte, ExtKappa/8)
	snd, rcv := Deal(g, 2, 8)
	seeds := make([][SeedLen]byte, 2*m)
	recv := make([]RecvInst, m)
	pad16, pad240, pad8200 := make([]byte, 16), make([]byte, 240), make([]byte, 8200)
	h := new(hasher)
	for name, f := range map[string]func(){
		"transposeBits":      func() { transposeBits(rows, cols, ExtKappa, m) },
		"rowHashesRecv/1":    func() { h.rowHashesRecv(recv[:1], rows[:ExtKappa/8], 7, 3) },
		"rowHashesRecv/1000": func() { h.rowHashesRecv(recv, rows, 7, 0) },
		"rowHashesSend/1000": func() { h.rowHashesSend(seeds, rows, delta, 7, 0) },
		"combineSend":        func() { h.combineSend(seeds[:1<<8], snd, 8) },
		"combineRecv":        func() { h.combineRecv(recv[:1], rcv, 8) },
		"shortPad/1":         func() { byteSink = shortPad(&seedSink, 1)[0] },
		"pad/1": func() {
			var pad [1]byte
			h.pad(pad[:], seedSink)
			byteSink = pad[0]
		},
		"pad/16":   func() { h.pad(pad16, seedSink) },
		"pad/240":  func() { h.pad(pad240, seedSink) },
		"pad/8200": func() { h.pad(pad8200, seedSink) },
	} {
		if n := testing.AllocsPerRun(5, f); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, n)
		}
	}
}

// TestRecvPreRejectsWideArity: the shift travels as one byte, so N > 256
// must fail before any traffic — a truncated shift would leave the
// receiver waiting on a sender that rejected the batch without answering.
func TestRecvPreRejectsWideArity(t *testing.T) {
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	_, rcv := Deal(prg.NewSeeded(43), 300, 1)
	done := make(chan error, 1)
	go func() {
		_, err := RecvPre(b, nil, rcv, 300, []int{299}, 4)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("RecvPre accepted N = 300")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RecvPre blocked instead of rejecting N = 300")
	}
	if sent := b.Stats().MsgsSent; sent != 0 {
		t.Errorf("RecvPre sent %d messages before rejecting N = 300", sent)
	}
}
