package secure

import (
	"fmt"

	"aq2pnn/internal/ring"
	"aq2pnn/internal/scm"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
)

// ABReLU (Sec. 4.4): ReLU over additive shares without garbled circuits.
// Step ① (quadrant detection) and step ② (OT-flow group comparison) yield
// boolean shares of the sign of x; an OT multiplexer then computes
// [[ReLU(x)]] = [[x · (1 ⊕ MSB(x))]]. The comparison result mask lives in
// the OUT-MSK buffer on the accelerator; here it is the sender's boolean
// share.

// MSBShares computes boolean shares of the sign bit of every shared value:
// party i plays the SCM token sender, party j the receiver.
func (c *Context) MSBShares(r ring.Ring, x []uint64) ([]uint64, error) {
	if c.Party == 0 {
		return scm.MSBSenderPar(c.OT, c.Rng, r, x, c.Pool)
	}
	return scm.MSBReceiverPar(c.OT, r, x, c.Pool)
}

// Mux computes arithmetic shares of x·d from arithmetic shares of x and
// boolean shares d of a bit, using one 1-of-2 OT per element in each
// direction: writing d = d_i ⊕ d_j,
//
//	x·d = x_i·d + x_j·d,
//
// and for each term the holder of x_p offers { x_p·(d_p⊕c) − r_p } c∈{0,1}
// while the other party selects with its bit, leaving the parties with
// additive shares of x_p·d.
func (c *Context) Mux(r ring.Ring, x, d []uint64) ([]uint64, error) {
	if len(x) != len(d) {
		return nil, fmt.Errorf("secure: Mux lengths %d vs %d", len(x), len(d))
	}
	sp := c.Trace.Enter("secure.mux", telemetry.WithAttrs(
		telemetry.Int("elems", int64(len(x))), telemetry.Int("bits", int64(r.Bits))))
	defer c.Trace.Exit(sp)
	n := len(x)

	// Instance k offers x_k·(d_k ⊕ c) − r_k for c = 0, 1: one slab per
	// tensor.
	buildCands := func(rp []uint64) []byte {
		cands := make([]uint64, 2*n)
		for k := range n {
			v0, v1 := r.Neg(rp[k]), r.Sub(x[k], rp[k])
			if d[k]&1 == 1 {
				v0, v1 = v1, v0
			}
			cands[2*k], cands[2*k+1] = v0, v1
		}
		return transport.PackElems(r, cands)
	}
	choices := make([]int, n)
	for k := range choices {
		choices[k] = int(d[k] & 1)
	}

	out := make([]uint64, n)
	sendPart := func() error {
		rp := c.Rng.Elems(n, r)
		if err := c.OT.Send1ofN(2, r.Bytes(), buildCands(rp)); err != nil {
			return err
		}
		r.AddVec(out, out, rp)
		return nil
	}
	recvPart := func() error {
		got, err := c.OT.Recv1ofN(2, choices, r.Bytes())
		if err != nil {
			return err
		}
		vals := make([]uint64, n)
		if err := transport.UnpackElemsInto(vals, r, got); err != nil {
			return err
		}
		r.AddVec(out, out, vals)
		return nil
	}
	// Party 0 sends its term first, then receives; party 1 mirrors.
	if c.Party == 0 {
		if err := sendPart(); err != nil {
			return nil, err
		}
		if err := recvPart(); err != nil {
			return nil, err
		}
	} else {
		if err := recvPart(); err != nil {
			return nil, err
		}
		if err := sendPart(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ABReLU computes shares of ReLU(x) element-wise.
func (c *Context) ABReLU(r ring.Ring, x []uint64) ([]uint64, error) {
	sp := c.Trace.Enter("secure.abrelu", telemetry.WithAttrs(
		telemetry.Int("elems", int64(len(x))), telemetry.Int("bits", int64(r.Bits))))
	defer c.Trace.Exit(sp)
	telemetry.Observe("aq2pnn_relu_ring_bits", float64(r.Bits), telemetry.BitBuckets)
	msb, err := c.MSBShares(r, x)
	if err != nil {
		return nil, fmt.Errorf("secure: ABReLU sign: %w", err)
	}
	// d = 1 ⊕ MSB: party i flips its boolean share.
	if c.Party == 0 {
		for k := range msb {
			msb[k] ^= 1
		}
	}
	out, err := c.Mux(r, x, msb)
	if err != nil {
		return nil, fmt.Errorf("secure: ABReLU mux: %w", err)
	}
	return out, nil
}

// DReLU returns boolean shares of the derivative of ReLU, i.e. [x ≥ 0].
func (c *Context) DReLU(r ring.Ring, x []uint64) ([]uint64, error) {
	msb, err := c.MSBShares(r, x)
	if err != nil {
		return nil, err
	}
	if c.Party == 0 {
		for k := range msb {
			msb[k] ^= 1
		}
	}
	return msb, nil
}
