package triple

import (
	"fmt"

	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/tensor"
)

// FixedB is the trusted dealer's layer family with its weight-side mask
// pinned, detached from any single session. The batch executor deals one
// FixedB per linear layer, opens F against BShare once during weight
// preparation, and then deals every image's triples from a generator of
// that image's own, so concurrent inferences never contend on — or
// perturb — each other's triple streams.
type FixedB struct {
	R    ring.Ring
	K, N int
	// b is the reconstructed fixed weight mask (dealer-side secret).
	b      []uint64
	shares [2][]uint64
}

// DealFixedB samples a fixed weight mask for a K×N layer and splits it.
func DealFixedB(g *prg.PRG, r ring.Ring, k, n int) (*FixedB, error) {
	if k <= 0 || n <= 0 {
		return nil, fmt.Errorf("triple: non-positive FixedB dims %dx%d", k, n)
	}
	b := g.Elems(k*n, r)
	s0, s1 := split(g, r, b)
	return &FixedB{R: r, K: k, N: n, b: b, shares: [2][]uint64{s0, s1}}, nil
}

// BShare returns the party's share of the fixed mask, for opening F during
// weight preparation.
func (fb *FixedB) BShare(party int) []uint64 { return fb.shares[party] }

// Deal deals one m-row triple against the fixed mask, drawing all its
// randomness from g: a fresh A and Z = A⊗B, each split. It returns party
// 0's and party 1's views.
func (fb *FixedB) Deal(g *prg.PRG, m int) [2]*Mat {
	r, k, n := fb.R, fb.K, fb.N
	a := g.Elems(m*k, r)
	z := make([]uint64, m*n)
	tensor.MatMulModParInto(nil, z, a, fb.b, m, k, n, r.Mask)
	a0, a1 := split(g, r, a)
	z0, z1 := split(g, r, z)
	return [2]*Mat{
		{R: r, M: m, K: k, N: n, A: a0, B: fb.shares[0], Z: z0},
		{R: r, M: m, K: k, N: n, A: a1, B: fb.shares[1], Z: z1},
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
