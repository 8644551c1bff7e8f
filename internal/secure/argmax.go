package secure

import (
	"fmt"

	"aq2pnn/internal/ring"
	"aq2pnn/internal/telemetry"
)

// Secure argmax: classification without revealing the logits. A natural
// extension of ABReLU's machinery (the paper's protocol reveals the
// output vector; with this operator only the winning class index is
// opened): a tournament where each comparison keeps the larger value
// via max(a,b) = a + ReLU(b−a) and carries the winning *index*
// through the same OT multiplexer, selecting with the DReLU bit of the
// difference.

// ArgMax returns arithmetic shares of the index of the maximum element,
// breaking ties toward the LATER index (the challenger wins on equality,
// because DReLU(0) = 1). Pairs are compared in parallel each stage,
// halving the candidate set: ⌈log₂ n⌉ stages of one DReLU plus two Mux
// calls (value and index lanes).
func (c *Context) ArgMax(r ring.Ring, x []uint64) (uint64, error) {
	n := len(x)
	if n == 0 {
		return 0, fmt.Errorf("secure: ArgMax of empty vector")
	}
	sp := c.Trace.Enter("secure.argmax", telemetry.WithAttrs(
		telemetry.Int("elems", int64(n)), telemetry.Int("bits", int64(r.Bits))))
	defer c.Trace.Exit(sp)
	vals := append([]uint64(nil), x...)
	idxs := make([]uint64, n)
	if c.Party == 0 {
		for i := range idxs {
			idxs[i] = uint64(i)
		}
	}
	for len(vals) > 1 {
		half := len(vals) / 2
		diffs := make([]uint64, half)
		idxDiffs := make([]uint64, half)
		for i := 0; i < half; i++ {
			a, b := 2*i, 2*i+1
			diffs[i] = r.Sub(vals[b], vals[a])
			idxDiffs[i] = r.Sub(idxs[b], idxs[a])
		}
		d, err := c.DReLU(r, diffs)
		if err != nil {
			return 0, err
		}
		dv, err := c.Mux(r, diffs, d)
		if err != nil {
			return 0, err
		}
		di, err := c.Mux(r, idxDiffs, d)
		if err != nil {
			return 0, err
		}
		nextVals := make([]uint64, 0, half+1)
		nextIdxs := make([]uint64, 0, half+1)
		for i := 0; i < half; i++ {
			nextVals = append(nextVals, r.Add(vals[2*i], dv[i]))
			nextIdxs = append(nextIdxs, r.Add(idxs[2*i], di[i]))
		}
		if len(vals)%2 == 1 {
			nextVals = append(nextVals, vals[len(vals)-1])
			nextIdxs = append(nextIdxs, idxs[len(idxs)-1])
		}
		vals, idxs = nextVals, nextIdxs
	}
	return idxs[0], nil
}
