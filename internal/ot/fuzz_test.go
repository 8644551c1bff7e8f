package ot

import (
	"bytes"
	"crypto/aes"
	"crypto/subtle"
	"errors"
	"fmt"
	"math/big"
	"testing"

	"aq2pnn/internal/prg"
	"aq2pnn/internal/transport"
)

// FuzzOTFlowHeader throws arbitrary bytes at the OT-flow header decoder:
// it must never panic, never accept a zero modulus, and every header it
// accepts must respect the declared-dimension caps (the fields that size
// allocations).
func FuzzOTFlowHeader(f *testing.F) {
	f.Add(encodeSeedHeader())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // giant eb/nl
	f.Add(make([]byte, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeFlowHeader(data)
		if err != nil {
			return
		}
		if h.group.P.Sign() == 0 {
			t.Fatal("decoder accepted a zero modulus")
		}
		if len(h.labels) > maxFlowLabels {
			t.Fatalf("decoder accepted %d labels past the %d cap", len(h.labels), maxFlowLabels)
		}
		if h.group.ElemBytes() > maxFlowElemBytes {
			t.Fatalf("decoder accepted %d-byte elements past the %d cap", h.group.ElemBytes(), maxFlowElemBytes)
		}
	})
}

// encodeSeedHeader builds one genuine flow header as the fuzzing seed.
func encodeSeedHeader() []byte {
	g := TestGroup()
	h := flowHeader{group: g, rHat: g.G, labels: nil}
	return h.encode()
}

// FuzzOTExtendFrames throws arbitrary bytes at the two frames a peer
// controls once the base phase is over: the IKNP u-matrix ExtSender.Extend
// reads (m instances of κ columns) and the derandomization shifts SendPre
// reads. Each must give an error or well-formed output — never a panic,
// never an index past the transpose's column slab — and an accepted shift
// frame must still deliver the receiver the message its shift selects.
func FuzzOTExtendFrames(f *testing.F) {
	f.Add(uint16(7), make([]byte, ExtKappa))      // one column byte per column
	f.Add(uint16(64), make([]byte, ExtKappa*8))   // one whole 64-row block
	f.Add(uint16(3), []byte{0, 3, 1})             // in-range shifts for N = 4
	f.Add(uint16(3), []byte{0, 4, 1})             // shift out of range
	f.Add(uint16(0), []byte{})                    // no instances, empty frame
	f.Add(uint16(1000), make([]byte, ExtKappa-1)) // short u-matrix
	g := prg.NewSeeded(51)
	delta := make([]byte, ExtKappa/8)
	g.Read(delta)
	delta[0] |= 1 // Δ ≠ 0, so the two pads of an accepted row always differ
	seeds := make([][SeedLen]byte, ExtKappa)
	for i := range seeds {
		g.Read(seeds[i][:])
	}
	const n, msgLen = 4, 5
	snd, rcv := Deal(g, n, 3)
	msgs := make([][][]byte, len(snd))
	for k := range msgs {
		msgs[k] = make([][]byte, n)
		for l := range msgs[k] {
			msgs[k][l] = []byte{byte(k), byte(l), 'm', 's', 'g'}
		}
	}
	f.Fuzz(func(t *testing.T, m16 uint16, frame []byte) {
		m := int(m16 % 2048)
		a, b := transport.Pipe()
		defer a.Close()
		defer b.Close()
		if err := b.Send(frame); err != nil {
			t.Fatal(err)
		}
		s := newExtSender(a, delta, seeds)
		if out, err := s.Extend(m); err == nil {
			if len(out) != 2*m {
				t.Fatalf("Extend(%d) returned %d seeds", m, len(out))
			}
			for j := 0; j < m; j++ {
				if out[2*j] == out[2*j+1] {
					t.Fatalf("instance %d is not a 1-of-2 correlation", j)
				}
			}
		}

		if err := b.Send(frame); err != nil {
			t.Fatal(err)
		}
		if err := SendPre(a, nil, snd, n, msgLen, flatten(msgs)); err != nil {
			return
		}
		cts, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(cts) != len(msgs)*n*msgLen {
			t.Fatalf("SendPre sent %d bytes, want %d", len(cts), len(msgs)*n*msgLen)
		}
		for k, d := range frame {
			ch := (rcv[k].Choice - int(d) + n) % n
			got := make([]byte, msgLen)
			PadInto(got, rcv[k].Seed)
			subtle.XORBytes(got, got, cts[(k*n+ch)*msgLen:(k*n+ch+1)*msgLen])
			if !bytes.Equal(got, msgs[k][ch]) {
				t.Fatalf("instance %d: shift %d does not deliver message %d", k, d, ch)
			}
		}
	})
}

// FuzzOTFlowElems throws peer bytes at the two flow frames that carry
// group elements or ciphertexts: the receiver's R frame, which FlowSend
// reads, and the sender's ciphertext frame, which FlowRecv reads after a
// genuine header. FlowSend must accept an R frame exactly when it holds
// one element in [1, P) per instance, and refuse a well-sized frame with
// an element outside that range with an *ElemError; FlowRecv must accept
// a ciphertext frame exactly when it has the declared length. Neither may
// panic.
func FuzzOTFlowElems(f *testing.F) {
	grp := TestGroup()
	const insts, n, msgLen = 2, 2, 3
	eb := grp.ElemBytes()
	f.Add(true, append(grp.Encode(big.NewInt(1)), grp.Encode(new(big.Int).Sub(grp.P, big.NewInt(1)))...))
	f.Add(true, append(grp.Encode(grp.G), grp.Encode(grp.P)...)) // R = P
	f.Add(true, make([]byte, insts*eb))                          // R = 0
	f.Add(true, []byte{1, 2, 3})                                 // short frame
	f.Add(false, make([]byte, insts*n*msgLen))
	f.Add(false, make([]byte, insts*n*msgLen+1))
	msgs := make([][][]byte, insts)
	for k := range msgs {
		msgs[k] = [][]byte{{byte(k), 0, 'm'}, {byte(k), 1, 'm'}}
	}
	hdr := flowHeader{group: grp, labels: []*big.Int{big.NewInt(7), big.NewInt(11)}, rHat: grp.ExpG(big.NewInt(5))}
	f.Fuzz(func(t *testing.T, toSender bool, frame []byte) {
		a, b := transport.Pipe()
		defer a.Close()
		defer b.Close()
		if toSender {
			if err := b.Send(frame); err != nil {
				t.Fatal(err)
			}
			err := FlowSend(a, grp, prg.NewSeeded(61), n, msgs)
			inRange := len(frame) == insts*eb
			for k := 0; inRange && k < insts; k++ {
				x := new(big.Int).SetBytes(frame[k*eb : (k+1)*eb])
				inRange = x.Sign() > 0 && x.Cmp(grp.P) < 0
			}
			var ee *ElemError
			switch {
			case inRange && err != nil:
				t.Fatalf("in-range R frame refused: %v", err)
			case !inRange && err == nil:
				t.Fatal("R frame with an element outside [1, P) or the wrong length accepted")
			case len(frame) == insts*eb && !inRange && !errors.As(err, &ee):
				t.Fatalf("out-of-range R element refused with %T, want *ElemError", err)
			}
			return
		}
		for _, p := range [][]byte{hdr.encode(), frame} {
			if err := b.Send(p); err != nil {
				t.Fatal(err)
			}
		}
		out, err := FlowRecv(a, prg.NewSeeded(62), n, []int{0, 1}, msgLen)
		if ok := len(frame) == insts*n*msgLen; ok != (err == nil) {
			t.Fatalf("ciphertext frame of %d bytes: err %v", len(frame), err)
		}
		for k := range out {
			if len(out[k]) != msgLen {
				t.Fatalf("instance %d decrypted to %d bytes", k, len(out[k]))
			}
		}
	})
}

// FuzzTransposeBlock checks transposeBlock differentially against the
// bit-by-bit transpose, at κ = ExtKappa and a random column matrix, for any
// m below 2^13 and any one of its row blocks: the rows it writes must be
// exactly those rows of the reference, and it must write no row at or past
// m.
func FuzzTransposeBlock(f *testing.F) {
	f.Add(uint16(1), uint16(0), uint64(1))
	f.Add(uint16(64), uint16(0), uint64(2))
	f.Add(uint16(129), uint16(2), uint64(3))
	f.Add(uint16(4097), uint16(64), uint64(4))
	f.Fuzz(func(t *testing.T, m16, rb16 uint16, seed uint64) {
		m := int(m16%(1<<13)) + 1
		blocks := (m + rowBlock - 1) / rowBlock
		rb := int(rb16) % blocks
		cols := make([]byte, ExtKappa*((m+7)/8))
		prg.NewSeeded(seed).Read(cols)
		const rowLen = ExtKappa / 8
		var h hasher
		for i := range h.rows {
			h.rows[i] = 0xA5
		}
		transposeBlock(h.rows[:], cols, m, rb)
		nr := min(rowBlock, m-rb*rowBlock)
		want := naiveTranspose(cols, m)[rb*rowBlock*rowLen : (rb*rowBlock+nr)*rowLen]
		if !bytes.Equal(h.rows[:nr*rowLen], want) {
			t.Fatalf("m=%d block %d: transposeBlock differs from the bitwise transpose", m, rb)
		}
		for i, b := range h.rows[nr*rowLen:] {
			if b != 0xA5 {
				t.Fatalf("m=%d block %d: byte %d past row %d written", m, rb, i, nr)
			}
		}
	})
}

// FuzzColumnExpand checks the keyed column expansion differentially
// against prg.Keystream, through the build's colKey and the one-block
// fallback, for any column seed, any counter block and any length below
// 2^13 bytes.
func FuzzColumnExpand(f *testing.F) {
	f.Add(make([]byte, SeedLen), make([]byte, aes.BlockSize), uint16(1))
	f.Add([]byte("column seed 0001"), []byte("\x00\x00\x00\x80\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xe7"), uint16(257))
	f.Add([]byte("column seed 0002"), bytes.Repeat([]byte{0xFF}, aes.BlockSize), uint16(4101))
	f.Fuzz(func(t *testing.T, seed, iv []byte, n16 uint16) {
		if len(seed) < SeedLen || len(iv) < aes.BlockSize {
			return
		}
		checkExpansion(t, fmt.Sprintf("IV %x", iv[:aes.BlockSize]), [SeedLen]byte(seed), [aes.BlockSize]byte(iv), int(n16%(1<<13)))
	})
}
