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
// fresh input mask A and the matching Z = rec(A) ⊗ rec(B).

// Family is one party's handle to a layer's triple family.
type Family interface {
	// BShare returns this party's share of the fixed weight mask (K×N).
	BShare() []uint64
	// Next returns a fresh triple for an M-row multiplication against the
	// fixed B.
	Next(m int) (*Mat, error)
}

// MaxPending bounds every undelivered-triple queue in this package (the
// dealer's per-shape and per-family queues and FixedBPool's) and anchors
// the preprocessing plane's bank depth: no component may hold more than
// MaxPending triples per (shape, party) ahead of consumption. The two parties' consumption
// runs in lockstep, so a queue past this bound means a protocol-order bug
// (or a hostile schedule), not a legitimate working set.
const MaxPending = 256

type dealerFamilyState struct {
	b       []uint64
	bShares [2][]uint64
	queues  pending[int] // per m
}

// Family returns the party's view of the layer family identified by id,
// creating it (with a fixed random B) on first use.
func (d *Dealer) Family(party int, id string, r ring.Ring, k, n int) (Family, error) {
	if k <= 0 || n <= 0 {
		return nil, fmt.Errorf("triple: non-positive family dims %dx%d", k, n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.families == nil {
		d.families = map[string]*dealerFamilyState{}
	}
	key := fmt.Sprintf("%s|%s|%dx%d", id, r, k, n)
	st := d.families[key]
	if st == nil {
		b := d.g.Elems(k*n, r)
		s0, s1 := split(d.g, r, b)
		st = &dealerFamilyState{b: b, bShares: [2][]uint64{s0, s1}, queues: pending[int]{}}
		d.families[key] = st
	}
	return &dealerFamily{d: d, st: st, party: party, r: r, k: k, n: n}, nil
}

type dealerFamily struct {
	d     *Dealer
	st    *dealerFamilyState
	party int
	r     ring.Ring
	k, n  int
}

func (f *dealerFamily) BShare() []uint64 { return f.st.bShares[f.party] }

func (f *dealerFamily) Next(m int) (*Mat, error) {
	if m <= 0 {
		return nil, fmt.Errorf("triple: non-positive row count %d", m)
	}
	countConsumed(m, f.k, f.n)
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	return f.st.queues.take(f.party, m, func() [2]*Mat {
		return dealFixedB(f.d.g, f.r, m, f.k, f.n, f.st.b, f.st.bShares)
	})
}

// GilboaFamily generates family triples through the OT-based protocol: B
// shares are drawn locally once; every Next runs the two Gilboa cross
// products for a fresh A. Both parties must call Next in lockstep.
type GilboaFamily struct {
	EP     *ot.Endpoint
	Rng    *prg.PRG
	Party  int
	R      ring.Ring
	K, N   int
	bShare []uint64
	// Pool, when non-nil, parallelises the local A_p⊗B_p term of each
	// generation (bit-identical at any worker count). The preprocessing
	// fillers set it from the fill-workers knob; the inline online path
	// leaves it nil.
	Pool *parallel.Pool
}

// NewGilboaFamily initialises the party's fixed weight-mask share.
func NewGilboaFamily(ep *ot.Endpoint, rng *prg.PRG, party int, r ring.Ring, k, n int) *GilboaFamily {
	return &GilboaFamily{EP: ep, Rng: rng, Party: party, R: r, K: k, N: n, bShare: rng.Elems(k*n, r)}
}

// NewGilboaFamilyFixed builds a family around an already-fixed weight-mask
// share instead of drawing a fresh one: a persistent session binds the
// opened F of its setup phase to fresh per-inference OT endpoints, which is
// only sound against the exact B the F was opened for.
func NewGilboaFamilyFixed(ep *ot.Endpoint, rng *prg.PRG, party int, r ring.Ring, k, n int, bShare []uint64) *GilboaFamily {
	return &GilboaFamily{EP: ep, Rng: rng, Party: party, R: r, K: k, N: n, bShare: bShare}
}

// BShare implements Family.
func (f *GilboaFamily) BShare() []uint64 { return f.bShare }

// Next implements Family: an inline (consumption-counted) generation.
func (f *GilboaFamily) Next(m int) (*Mat, error) {
	if m <= 0 {
		return nil, fmt.Errorf("triple: non-positive row count %d", m)
	}
	countConsumed(m, f.K, f.N)
	return f.Generate(m)
}

// Generate runs the interactive protocol for one fresh m-row triple
// without recording consumption: the preprocessing plane generates ahead
// of demand, and the triple counts as consumed only when a bank-backed
// family later hands it to the online path. The delivered shares are
// bit-identical to what an inline Next over the same Rng stream would
// produce — the OT plaintexts are the sender's inputs at the receiver's
// choice bits, independent of the endpoint's internal randomness — which
// is the warm==cold determinism argument of the preprocessing plane.
func (f *GilboaFamily) Generate(m int) (*Mat, error) {
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
// bank-backed warm path of a persistent session installs one per linear
// node per inference. BShare returns the triple's fixed weight-mask share
// (the same share the session's F openings were computed against), and
// Next delivers the triple exactly once, validating the requested row
// count against the precomputed shape.
type MatFamily struct {
	b   []uint64
	mat *Mat
}

// NewMatFamily wraps a precomputed family triple.
func NewMatFamily(m *Mat) *MatFamily { return &MatFamily{b: m.B, mat: m} }

// BShare implements Family.
func (f *MatFamily) BShare() []uint64 { return f.b }

// Next implements Family: it hands out the precomputed triple once.
func (f *MatFamily) Next(m int) (*Mat, error) {
	if f.mat == nil {
		return nil, fmt.Errorf("triple: precomputed family already consumed")
	}
	if m != f.mat.M {
		return nil, fmt.Errorf("triple: precomputed family has %d rows, want %d", f.mat.M, m)
	}
	countConsumed(m, f.mat.K, f.mat.N)
	t := f.mat
	f.mat = nil
	return t, nil
}
