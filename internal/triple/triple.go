// Package triple provides Beaver multiplication triples, the pre-computed
// constants (AS-CST buffer) that power ciphertext-ciphertext GEMM:
// matrices [[A]], [[B]], [[Z]] with Z = rec(A) ⊗ rec(B) (Sec. 4.1.2).
//
// Every triple serves one linear layer against the layer's fixed weight
// mask B, through the layer's Family: the opened F = rec(W) − rec(B) is
// pre-deployed once and only the input-side mask is exchanged per
// inference. The trusted dealer, FixedB, mirrors the paper's treatment of
// triples as pre-deployed constants (the paper points at HE [60] or OT
// [28] for their generation and leaves it offline) and serves the
// in-process paths. The networked session needs no trusted party: it runs
// Gilboa's OT-based protocol (GilboaFamily) for fully-connected layers and
// fixed-choice generation from session seeds (FixedFamily) for
// convolutions, and MatFamily hands out a triple the preprocessing plane
// generated ahead of demand.
package triple

import (
	"fmt"

	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/tensor"
)

// countConsumed records one consumed matrix triple in the default
// telemetry registry: the triple itself and its scalar-multiplication
// volume M·K·N (the unit the paper's offline-cost accounting uses). One
// branch when collection is disabled.
func countConsumed(m, k, n int) {
	if !telemetry.Enabled() {
		return
	}
	telemetry.Count("aq2pnn_triples_consumed_total", 1)
	//lint:allow ringmask metric arithmetic on matrix dimensions, not on ring shares
	telemetry.Count("aq2pnn_triple_muls_total", uint64(m)*uint64(k)*uint64(n))
}

// Mat is one party's share of a matrix multiplication triple for the
// product (M×K) ⊗ (K×N).
type Mat struct {
	R       ring.Ring
	M, K, N int
	A       []uint64 // share of the random input mask  (M×K)
	B       []uint64 // share of the random weight mask (K×N)
	Z       []uint64 // share of Z = rec(A) ⊗ rec(B)    (M×N)
}

// dealFixedB deals one m-row triple against a fixed weight mask b whose
// shares the parties already hold: a fresh A and Z = A⊗B, each split. It
// returns party 0's and party 1's views.
func dealFixedB(g *prg.PRG, r ring.Ring, m, k, n int, b []uint64, bShares [2][]uint64) [2]*Mat {
	a := g.Elems(m*k, r)
	z := make([]uint64, m*n)
	tensor.MatMulModParInto(nil, z, a, b, m, k, n, r.Mask)
	a0, a1 := split(g, r, a)
	z0, z1 := split(g, r, z)
	return [2]*Mat{
		{R: r, M: m, K: k, N: n, A: a0, B: bShares[0], Z: z0},
		{R: r, M: m, K: k, N: n, A: a1, B: bShares[1], Z: z1},
	}
}

// split returns the parties' additive shares of x: s0 drawn from g and
// s1 = x − s0.
func split(g *prg.PRG, r ring.Ring, x []uint64) (s0, s1 []uint64) {
	s0 = g.Elems(len(x), r)
	s1 = make([]uint64, len(x))
	r.SubVec(s1, x, s0)
	return s0, s1
}

// pending holds, per row count, each party's FIFO of dealt but
// undelivered triple views. The caller serialises access.
type pending map[int][2][]*Mat

// take returns the party's next m-row view, calling deal for a fresh pair
// of views when the party's FIFO is empty. Dealing for one party also
// queues the peer's view, so a peer that never consumes would grow its
// FIFO without bound: the deal that would push it past MaxPending fails
// instead, since the parties request identical row counts in identical
// order and a deeper backlog is a protocol-order bug, not demand. A row
// count whose views are all delivered is dropped, so a long-lived pool
// cycling through many row counts does not accumulate empty entries.
func (q pending) take(party, m int, deal func() [2]*Mat) (*Mat, error) {
	views := q[m]
	if len(views[party]) == 0 {
		if len(views[1-party]) >= MaxPending {
			return nil, fmt.Errorf("triple: party %d holds %d undelivered %d-row triples (max %d)",
				1-party, len(views[1-party]), m, MaxPending)
		}
		dealt := deal()
		views[0] = append(views[0], dealt[0])
		views[1] = append(views[1], dealt[1])
	}
	out := views[party][0]
	views[party] = views[party][1:]
	if len(views[0]) == 0 && len(views[1]) == 0 {
		delete(q, m)
	} else {
		q[m] = views
	}
	return out, nil
}
