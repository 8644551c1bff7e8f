//go:build amd64 && !purego

package ot

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

// hasAESNI reports CPUID leaf 1's AES bit (ECX bit 25).
func hasAESNI() bool

// aesBlocks encrypts the len(src)/16 blocks of src into dst under rk: eight
// blocks per pass with their AESENC rounds interleaved, then four, then
// one at a time.
//
//go:noescape
func aesBlocks(rk *roundKeys, dst, src []byte)
