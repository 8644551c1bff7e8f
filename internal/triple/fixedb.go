package triple

import (
	"fmt"
	"sync"

	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
)

// FixedB is the trusted dealer's layer family with its weight-side mask
// pinned, detached from any single session. The batch executor deals one
// FixedB per linear layer, opens F against BShare once during weight
// preparation, and then spins up an independent Pool per image so
// concurrent inferences never contend on — or perturb — each other's
// triple streams.
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

// Pool creates an independent triple pool over this fixed B, drawing all
// its randomness from g. Distinct pools with distinct generators produce
// independent triple streams, which is what keeps per-image transcripts
// identical regardless of how the batch schedules images across workers.
func (fb *FixedB) Pool(g *prg.PRG) *FixedBPool {
	return &FixedBPool{fb: fb, g: g, queues: pending{}}
}

// FixedBPool deals matched A/Z pairs on demand against the pool's fixed B,
// queueing each party's view until that party asks for it (at most
// MaxPending per row count). Safe for concurrent use by the two party
// views.
type FixedBPool struct {
	mu     sync.Mutex
	fb     *FixedB
	g      *prg.PRG
	queues pending
}

// View returns the party's Family handle onto the pool. Its Next counts
// the triple consumed, as every Family's inline Next does.
func (p *FixedBPool) View(party int) Family { return &fixedBView{p: p, party: party} }

type fixedBView struct {
	p     *FixedBPool
	party int
}

func (v *fixedBView) Next(m int) (*Mat, error) {
	if m <= 0 {
		return nil, fmt.Errorf("triple: non-positive row count %d", m)
	}
	p, fb := v.p, v.p.fb
	countConsumed(m, fb.K, fb.N)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queues.take(v.party, m, func() [2]*Mat {
		return dealFixedB(p.g, fb.R, m, fb.K, fb.N, fb.b, fb.shares)
	})
}
