//go:build !amd64 || purego

package ot

// permuteBlocks sets each 16-byte block of dst to π of the same block of
// src. dst and src are whole blocks, len(dst) ≥ len(src), and they are
// either the same slice or disjoint.
func permuteBlocks(dst, src []byte) { permuteBlocksGeneric(dst, src) }
