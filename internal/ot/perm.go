package ot

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
)

// π is AES-128 under fixedKey. On amd64 with AES-NI, permuteBlocks runs it
// over many blocks per call in an 8-way interleaved kernel (perm_amd64.s),
// whose round keys come from expandKey. Under the purego tag, on other
// architectures and on CPUs without AES-NI, it runs permuteBlocksGeneric:
// one cipher.Block call per block. Expand's session-seed hashes have a
// kernel of their own there (aesExpand), which builds each tweak block in
// registers instead of staging it in memory.
//
// The IKNP column expansion is AES-128 in counter mode under each base-OT
// seed (colKey). A plane keys each of its columns once; where the kernel
// runs, an expansion builds its counter blocks in registers and writes
// their encryption into the column, eight blocks at a time (aesCTR), and
// elsewhere it makes one cipher.Block call per block (ctrGeneric).

// fixedKey is π's key. It is public and the same in every process: the
// first 128 bits of the fractional part of the circle constant, in hex
// 243F6A88 85A308D3 13198A2E 03707344, a value with nothing up its sleeve.
const fixedKey = "\x24\x3f\x6a\x88\x85\xa3\x08\xd3\x13\x19\x8a\x2e\x03\x70\x73\x44"

// perm is π as a cipher.Block, only read after package initialisation.
var perm = newBlock([SeedLen]byte([]byte(fixedKey)))

// permuteBlocksGeneric sets each 16-byte block of dst to π of the same
// block of src, one Encrypt call per block. dst and src are whole blocks,
// len(dst) ≥ len(src), and they are either the same slice or disjoint.
func permuteBlocksGeneric(dst, src []byte) { encryptGeneric(perm, dst, src) }

// encryptGeneric is permuteBlocksGeneric under the block b.
func encryptGeneric(b cipher.Block, dst, src []byte) {
	for i := 0; i+aes.BlockSize <= len(src); i += aes.BlockSize {
		b.Encrypt(dst[i:i+aes.BlockSize], src[i:i+aes.BlockSize])
	}
}

// roundKeys is an AES-128 key schedule: the eleven round keys, in the
// byte order of FIPS-197 Sec. 5.2, which is the order AESENC reads.
type roundKeys [11 * aes.BlockSize]byte

// expandKey is the AES-128 key expansion of FIPS-197 Sec. 5.2, one round
// key of four big-endian words per step, with the S-box read from a
// table: a plane keys its 3κ column seeds in tens of microseconds.
func expandKey(key [aes.BlockSize]byte) (rk roundKeys) {
	be := binary.BigEndian
	copy(rk[:], key[:])
	w0, w1, w2, w3 := be.Uint32(key[0:]), be.Uint32(key[4:]), be.Uint32(key[8:]), be.Uint32(key[12:])
	for r, c := range rcon {
		// RotWord, SubWord and the round constant on the last word.
		t := w3<<8 | w3>>24
		w0 ^= uint32(sboxTable[t>>24]^c)<<24 | uint32(sboxTable[t>>16&0xff])<<16 |
			uint32(sboxTable[t>>8&0xff])<<8 | uint32(sboxTable[t&0xff])
		w1 ^= w0
		w2 ^= w1
		w3 ^= w2
		k := rk[aes.BlockSize*(r+1):]
		be.PutUint32(k[0:], w0)
		be.PutUint32(k[4:], w1)
		be.PutUint32(k[8:], w2)
		be.PutUint32(k[12:], w3)
	}
	return rk
}

// rcon holds the round constants x^(r-1) in GF(2^8), r = 1…10.
var rcon = [10]byte{0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36}

// sboxTable is the AES S-box of FIPS-197 Sec. 5.1.1, Figure 7;
// TestSboxTable checks every entry against its algebraic definition.
var sboxTable = [256]byte{
	0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
	0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
	0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
	0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
	0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
	0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
	0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
	0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
	0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
	0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
	0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
	0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
	0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
	0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
	0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
	0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
}

// ctrGeneric fills dst with b's CTR keystream from the counter block iv,
// counting as crypto/cipher's CTR mode does (a 128-bit big-endian
// increment), one Encrypt call per block: each whole block of dst takes
// its counter block and is encrypted in place, and a partial tail block
// is encrypted in tail and copied out. tail is the caller's heap scratch:
// a block on this stack would escape through the interface call, one
// allocation per column.
func ctrGeneric(b cipher.Block, dst []byte, iv [aes.BlockSize]byte, tail *[aes.BlockSize]byte) {
	be := binary.BigEndian
	hi, lo := be.Uint64(iv[:8]), be.Uint64(iv[8:])
	for p := 0; p < len(dst); p += aes.BlockSize {
		blk := dst[p:min(p+aes.BlockSize, len(dst))]
		if len(blk) < aes.BlockSize {
			blk = tail[:]
		}
		be.PutUint64(blk[:8], hi)
		be.PutUint64(blk[8:], lo)
		b.Encrypt(blk, blk)
		copy(dst[p:], blk)
		lo++
		if lo == 0 {
			hi++
		}
	}
}

// newBlock is crypto/aes under a 16-byte key. aes.NewCipher fails only on
// a bad key length, so its error is dropped.
func newBlock(key [SeedLen]byte) cipher.Block {
	b, _ := aes.NewCipher(key[:])
	return b
}
