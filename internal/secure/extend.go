package secure

import (
	"fmt"

	"aq2pnn/internal/ring"
	"aq2pnn/internal/scm"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
)

// Share ring extension — the "Ring Size Extension" of Sec. 5.1 realized in
// the share domain. Contracting shares to a smaller ring is local and
// exact; widening requires the unsigned wrap bit
//
//	k = [ x_0 + x_1 ≥ Q₁ ]  =  [ x_1 > Q₁ − 1 − x_0 ],
//
// computed with the secure comparison machine, after which
//
//	y_p = x_p − arith(k)_p · Q₁   (mod Q₂)
//
// reconstructs to the original non-negative value on the wider ring.
// ABReLU guarantees non-negative inputs, so AQ2PNN widens rings right
// after activations.

// B2A converts boolean shares d of a bit into arithmetic shares on ring r:
// k = d_0 ⊕ d_1 = d_0 + d_1 − 2·d_0·d_1, with the product supplied by one
// 1-of-2 OT (party 0 sending).
func (c *Context) B2A(r ring.Ring, d []uint64) ([]uint64, error) {
	sp := c.Trace.Enter("secure.b2a", telemetry.WithAttrs(
		telemetry.Int("elems", int64(len(d))), telemetry.Int("bits", int64(r.Bits))))
	defer c.Trace.Exit(sp)
	n := len(d)
	out := make([]uint64, n)
	if c.Party == 0 {
		rp := c.Rng.Elems(n, r)
		// Instance k offers d_k·c − r_k for c = 0, 1: one slab per tensor.
		cands := make([]uint64, 2*n)
		for k := range n {
			cands[2*k] = r.Neg(rp[k])
			cands[2*k+1] = r.Sub(d[k]&1, rp[k])
		}
		if err := c.OT.Send1ofN(2, r.Bytes(), transport.PackElems(r, cands)); err != nil {
			return nil, err
		}
		for k := 0; k < n; k++ {
			out[k] = r.Sub(d[k]&1, r.MulConst(rp[k], 2))
		}
		return out, nil
	}
	choices := make([]int, n)
	for k := range choices {
		choices[k] = int(d[k] & 1)
	}
	got, err := c.OT.Recv1ofN(2, choices, r.Bytes())
	if err != nil {
		return nil, err
	}
	if err := transport.UnpackElemsInto(out, r, got); err != nil {
		return nil, err
	}
	for k, v := range out {
		out[k] = r.Sub(d[k]&1, r.MulConst(v, 2))
	}
	return out, nil
}

// ZeroExtend re-encodes shares of a NON-NEGATIVE value from ring `from`
// onto the wider ring `to`. The hidden values must satisfy
// 0 ≤ x < Q₁/2; negative or too-large values are mis-extended (the
// adaptive-quantization contract places ZeroExtend after ABReLU where the
// bound holds by construction).
func (c *Context) ZeroExtend(from, to ring.Ring, x []uint64) ([]uint64, error) {
	if to.Bits < from.Bits {
		return nil, fmt.Errorf("secure: ZeroExtend %s→%s is a contraction", from, to)
	}
	if to.Bits == from.Bits {
		return append([]uint64(nil), x...), nil
	}
	sp := c.Trace.Enter("secure.zero_extend", telemetry.WithAttrs(
		telemetry.Int("elems", int64(len(x))),
		telemetry.Int("from_bits", int64(from.Bits)), telemetry.Int("to_bits", int64(to.Bits))))
	defer c.Trace.Exit(sp)
	// Wrap bit via SCM: party 0 holds a = Q₁−1−x_0, party 1 holds b = x_1;
	// k = [b > a].
	var kb []uint64
	var err error
	if c.Party == 0 {
		a := make([]uint64, len(x))
		for i, v := range x {
			a[i] = from.Sub(from.Mask, v) // Q₁ − 1 − x_0
		}
		kb, err = scm.CmpSenderPar(c.OT, c.Rng, from, a, scm.BGtA, c.Pool)
	} else {
		kb, err = scm.CmpReceiverPar(c.OT, from, x, scm.BGtA, c.Pool)
	}
	if err != nil {
		return nil, fmt.Errorf("secure: ZeroExtend wrap bit: %w", err)
	}
	ka, err := c.B2A(to, kb)
	if err != nil {
		return nil, fmt.Errorf("secure: ZeroExtend B2A: %w", err)
	}
	out := make([]uint64, len(x))
	q1 := int64(from.Q())
	for i := range x {
		out[i] = to.Sub(x[i], to.MulConst(ka[i], q1))
	}
	return out, nil
}
