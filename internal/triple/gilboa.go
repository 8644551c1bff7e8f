package triple

import (
	"fmt"

	"aq2pnn/internal/ot"
	"aq2pnn/internal/parallel"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/tensor"
	"aq2pnn/internal/transport"
)

// Gilboa's OT-based secure multiplication, the "[28]"-style triple
// generator: for a cross product a·b with a held by the receiver and b by
// the sender, the parties run one 1-of-2 OT per bit of a. For bit t the
// sender offers (r_t, r_t + 2^t·b); the receiver picks with bit a_t and
// accumulates, ending with Σ = a·b + r, while the sender keeps −r. Vector
// messages amortize one bit's OT over a whole row of B.
//
// Both halves accumulate straight into the caller's Z share (ring addition
// is exact, so the order of accumulation cannot change a share). The
// sender's r_t draws run in (row, bit, element) order — the order the
// warm ≡ cold argument of GilboaFamily.Next relies on.

// gilboaSend is the OT-sender half of one cross term of an M×K by K×N
// product: for every row idx = i·K + kk the peer holds the scalar a_idx and
// this party B's row kk (bShare is K×N). It packs both candidates of every
// OT straight into the candidate slab, subtracts each r_t from Z's row i,
// and sends.
func gilboaSend(ep *ot.Endpoint, rng *prg.PRG, r ring.Ring, z, bShare []uint64, m, k, n int) error {
	bits := int(r.Bits)
	msgLen := n * r.Bytes()
	cands := make([]byte, 2*m*k*bits*msgLen)
	rt, m1 := make([]uint64, n), make([]uint64, n)
	for idx := 0; idx < m*k; idx++ {
		b := bShare[(idx%k)*n : (idx%k+1)*n]
		zi := z[(idx/k)*n : (idx/k+1)*n]
		for t := 0; t < bits; t++ {
			rng.FillElems(rt, r)
			for j := range b {
				m1[j] = r.Add(rt[j], r.Mul(b[j], 1<<uint(t)))
				zi[j] = r.Sub(zi[j], rt[j])
			}
			o := idx*bits + t
			transport.PackElemsInto(cands[2*o*msgLen:(2*o+1)*msgLen], r, rt)
			transport.PackElemsInto(cands[(2*o+1)*msgLen:(2*o+2)*msgLen], r, m1)
		}
	}
	return ep.Send1ofN(2, msgLen, cands)
}

// gilboaRecv is the OT-receiver half: aShare (M×K) supplies the choice
// bits, and every received N-element row is added into Z's row i.
func gilboaRecv(ep *ot.Endpoint, r ring.Ring, z, aShare []uint64, m, k, n int) error {
	bits := int(r.Bits)
	msgLen := n * r.Bytes()
	choices := make([]int, 0, m*k*bits)
	for _, a := range aShare {
		for t := 0; t < bits; t++ {
			choices = append(choices, int((a>>uint(t))&1))
		}
	}
	got, err := ep.Recv1ofN(2, choices, msgLen)
	if err != nil {
		return err
	}
	vals := make([]uint64, n)
	for idx := 0; idx < m*k; idx++ {
		zi := z[(idx/k)*n : (idx/k+1)*n]
		for o := idx * bits; o < (idx+1)*bits; o++ {
			if err := transport.UnpackElemsInto(vals, r, got[o*msgLen:(o+1)*msgLen]); err != nil {
				return fmt.Errorf("triple: gilboa row: %w", err)
			}
			r.AddVec(zi, zi, vals)
		}
	}
	return nil
}

// GenMatGilboa generates one party's share of a matrix triple by running
// the OT-based protocol with the peer. Both parties call it with their own
// endpoint; party 0 plays the OT receiver for the A₀⊗B₁ cross term first.
// Cost: M·K·ℓ 1-of-2 OTs per cross term with N-element messages — heavy,
// as offline phases are, which is exactly why the accelerator buffers
// triples in the AS-CST buffer.
func GenMatGilboa(ep *ot.Endpoint, rng *prg.PRG, r ring.Ring, party, m, k, n int) (*Mat, error) {
	if m <= 0 || k <= 0 || n <= 0 {
		return nil, fmt.Errorf("triple: non-positive dims %dx%dx%d", m, k, n)
	}
	t := &Mat{R: r, M: m, K: k, N: n}
	t.A = rng.Elems(m*k, r)
	t.B = rng.Elems(k*n, r)
	var err error
	t.Z, err = gilboaZ(ep, rng, nil, r, party, m, k, n, t.A, t.B)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// gilboaZ computes this party's share of rec(A) ⊗ rec(B) given its shares
// of A (M×K) and B (K×N): the local term A_p⊗B_p plus two OT-based cross
// products, rec(A)⊗rec(B) = A0B0 + A0B1 + A1B0 + A1B1. Party 0 plays the OT
// receiver first. A non-nil pool parallelises the local term (bit-identical
// at any worker count); the interactive cross products are sequential wire
// protocol either way.
func gilboaZ(ep *ot.Endpoint, rng *prg.PRG, pool *parallel.Pool, r ring.Ring, party, m, k, n int, aShare, bShare []uint64) ([]uint64, error) {
	z := make([]uint64, m*n)
	tensor.MatMulModParInto(pool, z, aShare, bShare, m, k, n, r.Mask)
	recv := func() error { return gilboaRecv(ep, r, z, aShare, m, k, n) }
	send := func() error { return gilboaSend(ep, rng, r, z, bShare, m, k, n) }
	first, second := recv, send
	if party != 0 {
		first, second = send, recv
	}
	if err := first(); err != nil {
		return nil, err
	}
	if err := second(); err != nil {
		return nil, err
	}
	return z, nil
}
