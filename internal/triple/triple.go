// Package triple provides Beaver multiplication triples, the pre-computed
// constants (AS-CST buffer) that power ciphertext-ciphertext GEMM:
// matrices [[A]], [[B]], [[Z]] with Z = rec(A) ⊗ rec(B) (Sec. 4.1.2).
//
// Two offline generators are provided. The trusted Dealer mirrors the
// paper's treatment of triples as pre-deployed constants (the paper points
// at HE [60] or OT [28] for their generation and leaves it offline). The
// Gilboa generator actually runs the OT-based protocol over the session
// connection, so the full pipeline can be exercised without any trusted
// party.
package triple

import (
	"fmt"
	"sync"

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

// Key identifies a triple shape for buffering.
func (t *Mat) Key() string { return matKey(t.R, t.M, t.K, t.N) }

func matKey(r ring.Ring, m, k, n int) string {
	return fmt.Sprintf("%d:%dx%dx%d", r.Bits, m, k, n)
}

// DealMat samples a fresh matrix triple and splits it between the parties.
func DealMat(g *prg.PRG, r ring.Ring, m, k, n int) (p0, p1 *Mat) {
	a := g.Elems(m*k, r)
	b := g.Elems(k*n, r)
	z := make([]uint64, m*n)
	tensor.MatMulModParInto(nil, z, a, b, m, k, n, r.Mask)
	p0 = &Mat{R: r, M: m, K: k, N: n}
	p1 = &Mat{R: r, M: m, K: k, N: n}
	p0.A, p1.A = split(g, r, a)
	p0.B, p1.B = split(g, r, b)
	p0.Z, p1.Z = split(g, r, z)
	return p0, p1
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

// pending holds, per key, each party's FIFO of dealt but undelivered
// triple views. The caller serialises access.
type pending[K comparable] map[K][2][]*Mat

// take returns the party's next view under key, calling deal for a fresh
// pair of views when the party's FIFO is empty. Dealing for one party also
// queues the peer's view, so a peer that never consumes would grow its
// FIFO without bound: the deal that would push it past MaxPending fails
// instead, since the parties request identical keys in identical order
// and a deeper backlog is a protocol-order bug, not demand. A key whose
// views are all delivered is dropped, so long-lived dealers cycling
// through many shapes do not accumulate empty entries.
func (q pending[K]) take(party int, key K, deal func() [2]*Mat) (*Mat, error) {
	views := q[key]
	if len(views[party]) == 0 {
		if len(views[1-party]) >= MaxPending {
			return nil, fmt.Errorf("triple: party %d holds %d undelivered triples under key %v (max %d)",
				1-party, len(views[1-party]), key, MaxPending)
		}
		dealt := deal()
		views[0] = append(views[0], dealt[0])
		views[1] = append(views[1], dealt[1])
	}
	out := views[party][0]
	views[party] = views[party][1:]
	if len(views[0]) == 0 && len(views[1]) == 0 {
		delete(q, key)
	} else {
		q[key] = views
	}
	return out, nil
}

// Source supplies one party's triples in protocol order. Both parties must
// request identical shapes in identical order, which holds because they
// execute the same layer schedule.
type Source interface {
	MatTriple(r ring.Ring, m, k, n int) (*Mat, error)
}

// Dealer is the in-process trusted offline phase shared by the two
// parties' DealerSource views. It is safe for concurrent use.
type Dealer struct {
	mu       sync.Mutex
	g        *prg.PRG
	queue    pending[string] // per shape
	families map[string]*dealerFamilyState
}

// NewDealer returns a dealer drawing randomness from g.
func NewDealer(g *prg.PRG) *Dealer {
	return &Dealer{g: g, queue: pending[string]{}}
}

// SourceFor returns the party's view of the dealer.
func (d *Dealer) SourceFor(party int) Source { return &dealerSource{d: d, party: party} }

type dealerSource struct {
	d     *Dealer
	party int
}

func (s *dealerSource) MatTriple(r ring.Ring, m, k, n int) (*Mat, error) {
	if m <= 0 || k <= 0 || n <= 0 {
		return nil, fmt.Errorf("triple: non-positive dims %dx%dx%d", m, k, n)
	}
	countConsumed(m, k, n)
	d := s.d
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.queue.take(s.party, matKey(r, m, k, n), func() [2]*Mat {
		p0, p1 := DealMat(d.g, r, m, k, n)
		return [2]*Mat{p0, p1}
	})
}
