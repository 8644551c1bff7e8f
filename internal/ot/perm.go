package ot

import (
	"crypto/aes"
	"crypto/cipher"
)

// π is AES-128 under fixedKey. On amd64 with AES-NI, permuteBlocks runs it
// over many blocks per call in an 8-way interleaved kernel (perm_amd64.s),
// whose round keys come from expandKey. Under the purego tag, on other
// architectures and on CPUs without AES-NI, it runs permuteBlocksGeneric:
// one cipher.Block call per block.

// fixedKey is π's key. It is public and the same in every process: the
// first 128 bits of the fractional part of the circle constant, in hex
// 243F6A88 85A308D3 13198A2E 03707344, a value with nothing up its sleeve.
const fixedKey = "\x24\x3f\x6a\x88\x85\xa3\x08\xd3\x13\x19\x8a\x2e\x03\x70\x73\x44"

// perm is π as a cipher.Block, set once by init and only read after.
var perm cipher.Block

func init() {
	b, err := aes.NewCipher([]byte(fixedKey))
	if err != nil {
		// aes.NewCipher only fails on bad key sizes; 16 is always valid.
		panic("ot: " + err.Error())
	}
	perm = b
}

// permuteBlocksGeneric sets each 16-byte block of dst to π of the same
// block of src, one Encrypt call per block. dst and src are whole blocks,
// len(dst) ≥ len(src), and they are either the same slice or disjoint.
func permuteBlocksGeneric(dst, src []byte) {
	for i := 0; i+aes.BlockSize <= len(src); i += aes.BlockSize {
		perm.Encrypt(dst[i:i+aes.BlockSize], src[i:i+aes.BlockSize])
	}
}

// roundKeys is an AES-128 key schedule: the eleven round keys, in the
// byte order of FIPS-197 Sec. 5.2, which is the order AESENC reads.
type roundKeys [11 * aes.BlockSize]byte

// expandKey is the AES-128 key expansion of FIPS-197 Sec. 5.2.
func expandKey(key [aes.BlockSize]byte) (rk roundKeys) {
	copy(rk[:], key[:])
	rcon := byte(1)
	for i := aes.BlockSize; i < len(rk); i += 4 {
		w := [4]byte(rk[i-4 : i])
		if i%aes.BlockSize == 0 {
			// RotWord, SubWord, then the round constant.
			w = [4]byte{sbox(w[1]) ^ rcon, sbox(w[2]), sbox(w[3]), sbox(w[0])}
			rcon = gmul(rcon, 2)
		}
		for j, b := range w {
			rk[i+j] = rk[i-aes.BlockSize+j] ^ b
		}
	}
	return rk
}

// sbox is the AES S-box (FIPS-197 Sec. 5.1.1): the inverse of x in
// GF(2^8), taking 0 to 0, through the affine map b ⊕ rotl(b, 1…4) ⊕ 0x63.
func sbox(x byte) byte {
	inv, sq := byte(1), x
	for e := 254; e > 0; e >>= 1 { // x^254 = x^-1
		if e&1 == 1 {
			inv = gmul(inv, sq)
		}
		sq = gmul(sq, sq)
	}
	s := inv
	for r := 1; r <= 4; r++ {
		s ^= inv<<r | inv>>(8-r)
	}
	return s ^ 0x63
}

// gmul multiplies in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1.
func gmul(a, b byte) (p byte) {
	for ; b != 0; b >>= 1 {
		if b&1 == 1 {
			p ^= a
		}
		carry := a & 0x80
		a <<= 1
		if carry != 0 {
			a ^= 0x1b
		}
	}
	return p
}
