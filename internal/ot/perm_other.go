//go:build !amd64 || purego

package ot

import (
	"crypto/aes"
	"crypto/cipher"
)

// permuteBlocks sets each 16-byte block of dst to π of the same block of
// src. dst and src are whole blocks, len(dst) ≥ len(src), and they are
// either the same slice or disjoint.
func permuteBlocks(dst, src []byte) { permuteBlocksGeneric(dst, src) }

// expandSeeds is Expand's body, the Go tweak pass around permuteBlocks.
func expandSeeds(dst, px []byte, seq uint64, blocks int) { expandGeneric(dst, px, seq, blocks) }

// colKey is a column seed's AES-128, keyed once as a crypto/aes block. It
// is only read after newColKey, so endpoints share it.
type colKey struct{ block cipher.Block }

func newColKey(seed [SeedLen]byte) colKey { return colKey{block: newBlock(seed)} }

// expand fills dst with the key's AES-128-CTR keystream from the counter
// block iv; tail is scratch for a partial last block.
func (k *colKey) expand(dst []byte, iv [aes.BlockSize]byte, tail *[aes.BlockSize]byte) {
	ctrGeneric(k.block, dst, iv, tail)
}

// encrypt sets each 16-byte block of dst to the key's AES-128 of the same
// block of src.
func (k *colKey) encrypt(dst, src []byte) { encryptGeneric(k.block, dst, src) }
