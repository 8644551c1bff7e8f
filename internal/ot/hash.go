package ot

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
)

// One AES-128 permutation π under a public, fixed key derives the OT
// plane's IKNP row hashes, 1-of-2^t combiners and message pads. A use costs
// block encryptions only, with no key schedule per seed, and one
// cipher.Block serves every pool worker (encryption only reads the
// expanded key).
//
// The hash is the tweakable circular-correlation-robust hash of Guo, Katz,
// Wang and Yu, "Efficient and Secure Multiparty Computation from Fixed-Key
// Block Ciphers" (IEEE S&P 2020), at κ = 128, one block:
//
//	H(x, i) = π(π(x) ⊕ i) ⊕ π(x)
//
// Every use puts its own domain tag in the tweak i (see tweak). Base OTs
// (padFromKey) and the IKNP column expansion (prg.Keystream, keyed by
// base-OT seeds) stay keyed PRGs.

// fixedKey is π's key. It is public and the same in every process: the
// first 128 bits of the fractional part of the circle constant, in hex
// 243F6A88 85A308D3 13198A2E 03707344, a value with nothing up its sleeve.
const fixedKey = "\x24\x3f\x6a\x88\x85\xa3\x08\xd3\x13\x19\x8a\x2e\x03\x70\x73\x44"

// perm is π, set once by init and only read after.
var perm cipher.Block

func init() {
	b, err := aes.NewCipher([]byte(fixedKey))
	if err != nil {
		// aes.NewCipher only fails on bad key sizes; 16 is always valid.
		panic("ot: " + err.Error())
	}
	perm = b
}

// Domain tags, the top byte of every tweak: no two uses of H share one.
const (
	tagRow  = 1 // IKNP row hash: ⟨tagRow, counter, j⟩
	tagComb = 2 // 1-of-2^t combiner: ⟨tagComb, candidate c, component b⟩
	tagPad  = 3 // block b of a pad longer than one block: ⟨tagPad, b, 0⟩
)

// tweak packs ⟨tag, a, b⟩ into one block, little-endian: a in bytes 0–7, b
// in bytes 8–14, tag in byte 15. Every caller's b is below 2^56 (a row
// index, a component number or zero), so the packing is injective.
func tweak(tag byte, a, b uint64) (tw [aes.BlockSize]byte) {
	binary.LittleEndian.PutUint64(tw[:8], a)
	binary.LittleEndian.PutUint64(tw[8:], b)
	tw[15] = tag
	return tw
}

func xor16(a, b [aes.BlockSize]byte) (out [aes.BlockSize]byte) {
	le := binary.LittleEndian
	le.PutUint64(out[:8], le.Uint64(a[:8])^le.Uint64(b[:8]))
	le.PutUint64(out[8:], le.Uint64(a[8:])^le.Uint64(b[8:]))
	return out
}

// hasher is the heap block π encrypts in. Encrypt's arguments escape
// through the cipher.Block interface, so a stack buffer would cost one
// allocation per call; instead each pool chunk or token transfer makes one
// hasher and reuses it. A hasher belongs to one goroutine.
type hasher struct {
	buf [aes.BlockSize]byte
}

// permute returns π(x).
func (h *hasher) permute(x [aes.BlockSize]byte) [aes.BlockSize]byte {
	h.buf = x
	perm.Encrypt(h.buf[:], h.buf[:])
	return h.buf
}

// hashPermuted returns H(x, tw) from px = π(x).
func (h *hasher) hashPermuted(px, tw [aes.BlockSize]byte) [aes.BlockSize]byte {
	h.buf = xor16(px, tw)
	perm.Encrypt(h.buf[:], h.buf[:])
	return xor16(h.buf, px)
}

// rowHash derives one random-OT seed from a κ-bit IKNP row, which is one
// block: H(row, ⟨tagRow, counter, j⟩). The counter keeps successive Extend
// calls on distinct tweaks.
func (h *hasher) rowHash(counter uint64, j int, row []byte) [SeedLen]byte {
	return h.hashPermuted(h.permute([SeedLen]byte(row)), tweak(tagRow, counter, uint64(j)))
}

// combineSend fuses t = log2(len(dst)) ≤ 8 random 1-of-2 correlations into
// one 1-of-2^t correlation (Naor and Pinkas, STOC 1999), writing its
// candidate seeds to dst: candidate c's seed is ⊕_b H(s_{b,c_b},
// ⟨tagComb, c, b⟩), with π applied once per component seed. The tweak must
// carry c. Without it the pads of candidates 01, 10 and 11 XOR to the pad
// of 00, and a receiver holding one candidate learns a message XOR.
func (h *hasher) combineSend(dst [][SeedLen]byte, insts []SenderInst) {
	var pre [8][2][SeedLen]byte
	for b, inst := range insts {
		pre[b] = [2][SeedLen]byte{h.permute(inst.Seeds[0]), h.permute(inst.Seeds[1])}
	}
	for c := range dst {
		var seed [SeedLen]byte
		for b := range insts {
			seed = xor16(seed, h.hashPermuted(pre[b][(c>>b)&1], tweak(tagComb, uint64(c), uint64(b))))
		}
		dst[c] = seed
	}
}

// combineRecv is the receiver counterpart of combineSend: its choice is the
// components' choice bits, and its seed the chosen candidate's.
func (h *hasher) combineRecv(insts []RecvInst) RecvInst {
	var out RecvInst
	for b, inst := range insts {
		out.Choice |= inst.Choice << b
	}
	for b, inst := range insts {
		out.Seed = xor16(out.Seed, h.hashPermuted(h.permute(inst.Seed), tweak(tagComb, uint64(out.Choice), uint64(b))))
	}
	return out
}

// pad fills dst with seed's XOR pad. Up to one block the pad is the seed
// itself, cut to length, as in textbook IKNP: the seed is already a hash
// output, and it pads exactly one message. A longer pad is the blocks
// H(seed, ⟨tagPad, b⟩) for b = 0, 1, …, never the seed followed by more
// blocks: a known first message block would then reveal the seed, and with
// it the rest of the pad.
func (h *hasher) pad(dst []byte, seed [SeedLen]byte) {
	if len(dst) <= SeedLen {
		copy(dst, seed[:])
		return
	}
	ps := h.permute(seed)
	for b := uint64(0); len(dst) > 0; b++ {
		blk := h.hashPermuted(ps, tweak(tagPad, b, 0))
		dst = dst[copy(dst, blk[:]):]
	}
}

// PadInto fills dst with the XOR pad of seed (see hasher.pad). The hot
// loops pad through a reused hasher; this form allocates one per call.
func PadInto(dst []byte, seed [SeedLen]byte) { new(hasher).pad(dst, seed) }
