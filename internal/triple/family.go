package triple

import (
	"fmt"

	"aq2pnn/internal/ot"
	"aq2pnn/internal/parallel"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/telemetry"
)

// A triple *family* serves one linear layer with static weights: the
// weight-side mask B is fixed, so the opened F = rec(W) − rec(B) can be
// "pre-deployed in the memory of each party" (Sec. 4.1.2) and only the
// input-side mask E is exchanged per inference. Each call to Next yields a
// fresh input mask A and the matching Z = rec(A) ⊗ rec(B). The party's B
// share itself is held by whoever opened F against it.

// Family is one party's handle to a layer's triple family.
type Family interface {
	// Next returns a fresh triple for an M-row multiplication against the
	// fixed B. It counts nothing: the triple is consumed, and counted,
	// where a multiplication uses it (secure.Linear.Mul).
	Next(m int) (*Mat, error)
}

// GilboaFamily generates family triples through the OT-based protocol
// against the party's fixed B share: every Next runs the two Gilboa cross
// products for a fresh A. Both parties must call Next in lockstep.
type GilboaFamily struct {
	EP     *ot.Endpoint
	Rng    *prg.PRG
	Party  int
	R      ring.Ring
	K, N   int
	bShare []uint64
	// Pool, when non-nil, parallelises the local A_p⊗B_p term of each
	// generation (bit-identical at any worker count).
	Pool *parallel.Pool
}

// NewGilboaFamily builds a family around the party's fixed weight-mask
// share: a persistent session binds the opened F of its setup phase to
// fresh per-inference OT endpoints, which is only sound against the exact
// B the F was opened for.
func NewGilboaFamily(ep *ot.Endpoint, rng *prg.PRG, party int, r ring.Ring, k, n int, bShare []uint64) *GilboaFamily {
	return &GilboaFamily{EP: ep, Rng: rng, Party: party, R: r, K: k, N: n, bShare: bShare}
}

// Next implements Family: it runs the interactive protocol for one fresh
// m-row triple. The preprocessing plane calls it ahead of demand and the
// cold path inline; the delivered shares are bit-identical either way over
// the same Rng stream — the OT plaintexts are the sender's inputs at the
// receiver's choice bits, independent of the endpoint's internal
// randomness — which is the warm==cold determinism argument of the
// preprocessing plane.
func (f *GilboaFamily) Next(m int) (*Mat, error) {
	if m <= 0 {
		return nil, fmt.Errorf("triple: non-positive row count %d", m)
	}
	sp := f.EP.Trace.Enter("triple.gilboa", telemetry.WithAttrs(
		telemetry.Int("m", int64(m)), telemetry.Int("k", int64(f.K)),
		telemetry.Int("n", int64(f.N)), telemetry.Int("bits", int64(f.R.Bits))))
	defer f.EP.Trace.Exit(sp)
	t := &Mat{R: f.R, M: m, K: f.K, N: f.N}
	t.A = f.Rng.Elems(m*f.K, f.R)
	t.B = f.bShare
	var err error
	t.Z, err = gilboaZ(f.EP, f.Rng, f.Pool, f.R, f.Party, m, f.K, f.N, t.A, t.B)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// MatFamily adapts one precomputed triple into a single-use Family: the
// in-process batch installs one dealt triple per linear node per image,
// and the bank-backed warm path of a persistent session one kit triple.
// Its B is the fixed weight-mask share the F openings were computed
// against, and Next delivers the triple exactly once, validating the
// requested row count against the precomputed shape.
type MatFamily struct {
	mat *Mat
}

// NewMatFamily wraps a precomputed family triple.
func NewMatFamily(m *Mat) *MatFamily { return &MatFamily{mat: m} }

// Next implements Family: it hands out the precomputed triple once.
func (f *MatFamily) Next(m int) (*Mat, error) {
	if f.mat == nil {
		return nil, fmt.Errorf("triple: precomputed family already consumed")
	}
	if m != f.mat.M {
		return nil, fmt.Errorf("triple: precomputed family has %d rows, want %d", f.mat.M, m)
	}
	t := f.mat
	f.mat = nil
	return t, nil
}
