package secure

import (
	"fmt"

	"aq2pnn/internal/parallel"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/tensor"
	"aq2pnn/internal/transport"
	"aq2pnn/internal/triple"
)

// gemmSlab recycles the per-call temporaries of the secure GEMMs (mask
// shares, the IN⊗F partial product). Results that escape to the caller
// are still allocated fresh; only buffers whose lifetime ends inside the
// call draw from the slab.
var gemmSlab parallel.Slab[uint64]

// AS-GEMM: the ciphertext-ciphertext matrix multiplication of Sec. 4.1.2.
// With Beaver triple [[A]], [[B]], [[Z]] (Z = A⊗B) and opened masks
// E = rec(IN − A), F = rec(W − B), each party computes Eq. 1:
//
//	OUT_p = −p·E⊗F + IN_p⊗F + E⊗W_p + Z_p
//
// which we fold into two GEMMs: OUT_p = E⊗(W_p − p·F) + IN_p⊗F + Z_p.
// The paper's AS-GEMM array evaluates the same expression with one C-C
// multiplication unit per (input, output) channel pair.

// MatMul multiplies shared matrices using a fresh ad-hoc triple: shares of
// rec(IN) ⊗ rec(W) for IN (M×K) and W (K×N). Both masks are opened, so it
// costs two share exchanges; prepared layers (PrepareLinear) avoid the F
// exchange for static weights.
func (c *Context) MatMul(r ring.Ring, in, w []uint64, m, k, n int) ([]uint64, error) {
	if len(in) != m*k || len(w) != k*n {
		return nil, fmt.Errorf("secure: MatMul dims %dx%d × %dx%d with lens %d,%d", m, k, k, n, len(in), len(w))
	}
	sp := c.Trace.Enter("secure.matmul", telemetry.WithAttrs(
		telemetry.Int("m", int64(m)), telemetry.Int("k", int64(k)),
		telemetry.Int("n", int64(n)), telemetry.Int("bits", int64(r.Bits))))
	defer c.Trace.Exit(sp)
	t, err := c.Triples.MatTriple(r, m, k, n)
	if err != nil {
		return nil, err
	}
	eShare := make([]uint64, m*k)
	r.SubVec(eShare, in, t.A)
	fShare := make([]uint64, k*n)
	r.SubVec(fShare, w, t.B)
	e, err := c.Open(r, eShare)
	if err != nil {
		return nil, err
	}
	f, err := c.Open(r, fShare)
	if err != nil {
		return nil, err
	}
	return c.beaverCombine(r, e, f, in, w, t.Z, m, k, n), nil
}

// beaverCombine evaluates Eq. 1 given the opened masks.
func (c *Context) beaverCombine(r ring.Ring, e, f, inShare, wShare, zShare []uint64, m, k, n int) []uint64 {
	// W_p − p·F (party j subtracts the public F once).
	wf := wShare
	if c.Party == 1 {
		wf = gemmSlab.Get(len(wShare))
		defer gemmSlab.Put(wf)
		r.SubVec(wf, wShare, f)
	}
	out := make([]uint64, m*n)
	tensor.MatMulModParInto(c.Pool, out, e, wf, m, k, n, r.Mask)
	inf := gemmSlab.Get(m * n)
	tensor.MatMulModParInto(c.Pool, inf, inShare, f, m, k, n, r.Mask)
	r.AddVec(out, out, inf)
	gemmSlab.Put(inf)
	r.AddVec(out, out, zShare)
	return out
}

// Linear is a prepared linear operator (Conv2D via im2col, or FC): the
// weight mask F has been opened once at preparation time ("pre-deployed in
// the memory of each party"), so each online call exchanges only the input
// mask E — the communication pattern the paper's Table 5 profiles.
type Linear struct {
	ctx  *Context
	R    ring.Ring
	K, N int
	// wMinusPF is W_p − p·F, this party's precombined weight term.
	wMinusPF []uint64
	// F is the public opened weight mask.
	F   []uint64
	fam triple.Family
}

// PrepareLinear opens F = rec(W − B) for a static weight share (K×N) and
// returns the prepared layer. id must be unique per layer and identical on
// both parties.
func (c *Context) PrepareLinear(id string, r ring.Ring, wShare []uint64, k, n int) (*Linear, error) {
	if c.NewFamily == nil {
		return nil, fmt.Errorf("secure: context has no triple-family provider")
	}
	fam, err := c.NewFamily(id, r, k, n)
	if err != nil {
		return nil, err
	}
	return c.PrepareLinearWith(r, wShare, k, n, fam)
}

// PrepareLinearWith opens F against an explicitly supplied triple family —
// the batch executor's path, where the family's fixed mask B is dealt
// per-layer so fresh per-image pools can later serve the same weights.
func (c *Context) PrepareLinearWith(r ring.Ring, wShare []uint64, k, n int, fam triple.Family) (*Linear, error) {
	if len(wShare) != k*n {
		return nil, fmt.Errorf("secure: weight share length %d for %dx%d", len(wShare), k, n)
	}
	sp := c.Trace.Enter("secure.linear.prepare", telemetry.WithAttrs(
		telemetry.Int("k", int64(k)), telemetry.Int("n", int64(n)),
		telemetry.Int("bits", int64(r.Bits))))
	defer c.Trace.Exit(sp)
	fShare := make([]uint64, k*n)
	r.SubVec(fShare, wShare, fam.BShare())
	f, err := c.Open(r, fShare)
	if err != nil {
		return nil, err
	}
	wf := wShare
	if c.Party == 1 {
		wf = make([]uint64, len(wShare))
		r.SubVec(wf, wShare, f)
	}
	return &Linear{ctx: c, R: r, K: k, N: n, wMinusPF: wf, F: f, fam: fam}, nil
}

// Prepared is the connection-independent product of weight preparation: the
// public opened mask F and this party's precombined W_p − p·F term. It can
// be bound to any number of contexts (BindLinear), which is how the batch
// executor pays the F opening once and reuses it across concurrent images.
type Prepared struct {
	R        ring.Ring
	K, N     int
	F        []uint64
	WMinusPF []uint64
}

// Export extracts the reusable preparation product of a prepared layer.
func (l *Linear) Export() *Prepared {
	return &Prepared{R: l.R, K: l.K, N: l.N, F: l.F, WMinusPF: l.wMinusPF}
}

// BindLinear attaches prepared weights to this context with a fresh triple
// family. The family's fixed mask B must be the one F was opened against
// (same per-layer secrets), or the Beaver identity breaks.
func (c *Context) BindLinear(p *Prepared, fam triple.Family) *Linear {
	return &Linear{ctx: c, R: p.R, K: p.K, N: p.N, wMinusPF: p.WMinusPF, F: p.F, fam: fam}
}

// Mul multiplies a shared input (M×K) against the prepared weights,
// exchanging only the E mask.
func (l *Linear) Mul(in []uint64, m int) ([]uint64, error) {
	if len(in) != m*l.K {
		return nil, fmt.Errorf("secure: input length %d for %dx%d", len(in), m, l.K)
	}
	sp := l.ctx.Trace.Enter("secure.linear.mul", telemetry.WithAttrs(
		telemetry.Int("m", int64(m)), telemetry.Int("k", int64(l.K)),
		telemetry.Int("n", int64(l.N)), telemetry.Int("bits", int64(l.R.Bits))))
	defer l.ctx.Trace.Exit(sp)
	t, err := l.fam.Next(m)
	if err != nil {
		return nil, err
	}
	r := l.R
	eShare := gemmSlab.Get(m * l.K)
	r.SubVec(eShare, in, t.A)
	e, err := transport.ExchangeOpen(l.ctx.Conn, r, l.ctx.P(), eShare)
	gemmSlab.Put(eShare)
	if err != nil {
		return nil, err
	}
	// out escapes as the layer's activation share, so it alone is a fresh
	// allocation; the IN⊗F partial product dies here and rides the slab.
	out := make([]uint64, m*l.N)
	tensor.MatMulModParInto(l.ctx.Pool, out, e, l.wMinusPF, m, l.K, l.N, r.Mask)
	inf := gemmSlab.Get(m * l.N)
	tensor.MatMulModParInto(l.ctx.Pool, inf, in, l.F, m, l.K, l.N, r.Mask)
	r.AddVec(out, out, inf)
	gemmSlab.Put(inf)
	r.AddVec(out, out, t.Z)
	return out, nil
}
