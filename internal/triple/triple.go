// Package triple provides Beaver multiplication triples, the pre-computed
// constants (AS-CST buffer) that power ciphertext-ciphertext GEMM:
// matrices [[A]], [[B]], [[Z]] with Z = rec(A) ⊗ rec(B) (Sec. 4.1.2).
//
// Every triple serves one linear layer against the layer's fixed weight
// mask B, through the layer's Family: the opened F = rec(W) − rec(B) is
// pre-deployed once and only the input-side mask is exchanged per
// inference. The trusted dealer, FixedB, mirrors the paper's treatment of
// triples as pre-deployed constants (the paper points at HE [60] or OT
// [28] for their generation and leaves it offline) and deals the
// in-process batch's triples up front. The networked session needs no
// trusted party: it runs Gilboa's OT-based protocol (GilboaFamily) for
// fully-connected layers and fixed-choice generation from session seeds
// (FixedFamily) for convolutions. MatFamily hands out a triple made ahead
// of its inference: dealt, or generated by the preprocessing plane.
package triple

import "aq2pnn/internal/ring"

// Mat is one party's share of a matrix multiplication triple for the
// product (M×K) ⊗ (K×N).
type Mat struct {
	R       ring.Ring
	M, K, N int
	A       []uint64 // share of the random input mask  (M×K)
	B       []uint64 // share of the random weight mask (K×N)
	Z       []uint64 // share of Z = rec(A) ⊗ rec(B)    (M×N)
}
