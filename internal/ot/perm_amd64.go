//go:build amd64 && !purego

package ot

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math/bits"
)

// useAESNI reports whether the CPU has the AES instructions the kernel
// needs.
var useAESNI = hasAESNI()

// permKeys is π's key schedule for the kernel, set once by init and only
// read after.
var permKeys roundKeys

func init() {
	if useAESNI {
		permKeys = expandKey([16]byte([]byte(fixedKey)))
	}
}

// permuteBlocks sets each 16-byte block of dst to π of the same block of
// src. dst and src are whole blocks, len(dst) ≥ len(src), and they are
// either the same slice or disjoint.
func permuteBlocks(dst, src []byte) {
	if !useAESNI {
		permuteBlocksGeneric(dst, src)
		return
	}
	aesBlocks(&permKeys, dst[:len(src)], src)
}

// expandSeeds is Expand's body: the kernel builds each tweak block in
// registers and XORs π(x) back in before it stores.
func expandSeeds(dst, px []byte, seq uint64, blocks int) {
	if !useAESNI {
		expandGeneric(dst, px, seq, blocks)
		return
	}
	aesExpand(&permKeys, dst, px, seq, blocks)
}

// colKey is a column seed's AES-128, keyed once: the kernel's round keys
// where the CPU has AES-NI, a crypto/aes block where it has not. It is
// only read after newColKey, so endpoints share it.
type colKey struct {
	rk    roundKeys
	block cipher.Block
}

func newColKey(seed [SeedLen]byte) colKey {
	if !useAESNI {
		return colKey{block: newBlock(seed)}
	}
	return colKey{rk: expandKey(seed)}
}

// expand fills dst with the key's AES-128-CTR keystream from the counter
// block iv: the kernel writes the keystream of the whole blocks straight
// into dst, and that of a partial last block into the scratch tail.
func (k *colKey) expand(dst []byte, iv [aes.BlockSize]byte, tail *[aes.BlockSize]byte) {
	if !useAESNI {
		ctrGeneric(k.block, dst, iv, tail)
		return
	}
	be := binary.BigEndian
	whole := len(dst) &^ (aes.BlockSize - 1)
	hi, lo := be.Uint64(iv[:8]), be.Uint64(iv[8:])
	aesCTR(&k.rk, dst[:whole], hi, lo)
	if whole < len(dst) {
		lo, carry := bits.Add64(lo, uint64(whole/aes.BlockSize), 0)
		aesCTR(&k.rk, tail[:], hi+carry, lo)
		copy(dst[whole:], tail[:])
	}
}

// encrypt sets each 16-byte block of dst to the key's AES-128 of the same
// block of src, as permuteBlocks does under π's key.
func (k *colKey) encrypt(dst, src []byte) {
	if !useAESNI {
		encryptGeneric(k.block, dst, src)
		return
	}
	aesBlocks(&k.rk, dst[:len(src)], src)
}

// hasAESNI reports CPUID leaf 1's AES bit (ECX bit 25).
func hasAESNI() bool

// aesBlocks encrypts the len(src)/16 blocks of src into dst under rk: eight
// blocks per pass with their AESENC rounds interleaved, then four, then
// one at a time.
//
//go:noescape
func aesBlocks(rk *roundKeys, dst, src []byte)

// aesCTR writes the keystream of the len(dst)/16 counter blocks (hi, lo),
// (hi, lo)+1, … into dst: each block is hi then lo, big-endian, and the
// count carries from lo into hi, as in crypto/cipher's CTR mode. The
// counter blocks are built in registers and encrypted eight, four, then
// one at a time as in aesBlocks.
//
//go:noescape
func aesCTR(rk *roundKeys, dst []byte, hi, lo uint64)

// aesExpand writes H(x_i, ⟨tagSeq, seq, b⟩) = π(π(x_i) ⊕ tw) ⊕ π(x_i) for
// the len(dst)/16 blocks of dst, blocks consecutive ones per seed, π(x_i)
// being block i of px. Each tweak block is built in registers; the
// blocks are encrypted eight, four, then one at a time as in aesBlocks,
// and a pass of eight runs across seed boundaries, so a slab of short
// expansions still fills every lane. The caller checks that len(dst) is
// len(px)·blocks.
//
//go:noescape
func aesExpand(rk *roundKeys, dst, px []byte, seq uint64, blocks int)
