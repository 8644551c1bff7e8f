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

// gemmSlab recycles the per-call temporaries of Linear.Mul (the E mask
// share, the IN⊗F partial product). Results that escape to the caller
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
// multiplication unit per (input, output) channel pair. The weights are
// static and B is fixed per layer, so F is opened once (PrepareLinear)
// and each multiplication exchanges only E (Linear.Mul).

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

// PrepareLinear opens F = rec(W − B) for a static weight share (K×N)
// against this party's share of the layer's fixed weight mask B (K×N).
// Both parties call it in the same layer order.
func (c *Context) PrepareLinear(r ring.Ring, wShare, bShare []uint64, k, n int) (*Prepared, error) {
	if len(wShare) != k*n || len(bShare) != k*n {
		return nil, fmt.Errorf("secure: weight and mask shares of length %d, %d for %dx%d", len(wShare), len(bShare), k, n)
	}
	sp := c.Trace.Enter("secure.linear.prepare", telemetry.WithAttrs(
		telemetry.Int("k", int64(k)), telemetry.Int("n", int64(n)),
		telemetry.Int("bits", int64(r.Bits))))
	defer c.Trace.Exit(sp)
	fShare := make([]uint64, k*n)
	r.SubVec(fShare, wShare, bShare)
	f, err := c.Open(r, fShare)
	if err != nil {
		return nil, err
	}
	wf := wShare
	if c.Party == 1 {
		wf = make([]uint64, len(wShare))
		r.SubVec(wf, wShare, f)
	}
	return &Prepared{R: r, K: k, N: n, F: f, WMinusPF: wf}, nil
}

// Linear is a prepared linear operator (Conv2D via im2col, or FC) bound to
// a context: the weight mask F has been opened once at preparation time
// ("pre-deployed in the memory of each party"), so each online call
// exchanges only the input mask E — the communication pattern the paper's
// Table 5 profiles.
type Linear struct {
	*Prepared
	ctx *Context
	fam triple.Family
}

// BindLinear attaches prepared weights to this context with the layer's
// triple family for this inference. The family's fixed mask B must be the
// one F was opened against (same per-layer secrets), or the Beaver
// identity breaks.
func (c *Context) BindLinear(p *Prepared, fam triple.Family) *Linear {
	return &Linear{Prepared: p, ctx: c, fam: fam}
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
	// The one place a triple counts as consumed, whichever supply made it:
	// the triple itself and its scalar-multiplication volume M·K·N (the
	// unit the paper's offline-cost accounting uses).
	if telemetry.Enabled() {
		telemetry.Count("aq2pnn_triples_consumed_total", 1)
		//lint:allow ringmask metric arithmetic on matrix dimensions, not on ring shares
		telemetry.Count("aq2pnn_triple_muls_total", uint64(m)*uint64(l.K)*uint64(l.N))
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
	tensor.MatMulModParInto(l.ctx.Pool, out, e, l.WMinusPF, m, l.K, l.N, r.Mask)
	inf := gemmSlab.Get(m * l.N)
	tensor.MatMulModParInto(l.ctx.Pool, inf, in, l.F, m, l.K, l.N, r.Mask)
	r.AddVec(out, out, inf)
	gemmSlab.Put(inf)
	r.AddVec(out, out, t.Z)
	return out, nil
}
