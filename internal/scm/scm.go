// Package scm implements the Secure Comparison Machine (Sec. 4.3.3): the
// possible-value comparison matrix of Fig. 5/6, its transfer over the
// OT-flow, and the two-step ABReLU sign evaluation of Sec. 4.4 — quadrant
// detection on the most significant bits plus an OT-based group-wise
// comparison of the remaining bits.
//
// The correctness identity, derived from the quadrant analysis of Fig. 7:
// with a = (−x_i) mod Q held by party i and b = x_j held by party j,
//
//	MSB(x) = MSB(a) ⊕ MSB(b) ⊕ [ low(b) < low(a) ]
//
// where low(·) strips the sign bit. The MSBs are local (the "quadrant
// detection" step); [low(b) < low(a)] is evaluated lexicographically over
// the A2BM groups, each group resolved by one (1, 2^su)-OT whose tokens
// are the {LT, EQ, GT} entries of the comparison matrix (Eq. 6). Party i
// masks the outcome by randomly swapping the LT/GT labels, so the parties
// end with XOR (boolean) shares of MSB(x) and neither learns the sign.
package scm

import (
	"fmt"

	"aq2pnn/internal/a2b"
	"aq2pnn/internal/ot"
	"aq2pnn/internal/parallel"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/telemetry"
)

// Comparison tokens of Eq. 6. From the receiver's perspective a token
// reports how its own group value compares to the sender's.
const (
	TokenLT byte = 1 // receiver's group < sender's group
	TokenEQ byte = 2 // equal: move to the next group
	TokenGT byte = 3 // receiver's group > sender's group
)

// SenderTokens builds one element's comparison matrix rows: for each low
// group u (widths from a2b.LowGroups) and each possible receiver value pm,
// the token the receiver should learn. flip=1 swaps the LT/GT labels (the
// OUT-MSK masking). In the final group EQ is resolved to "not less",
// encoded through the same flip so the receiver always terminates with a
// definite label.
func SenderTokens(gaLow []uint64, widths []uint, flip uint64) [][]byte {
	flat := make([]byte, rowLen(widths))
	SenderTokensInto(flat, gaLow, widths, flip)
	return splitRows(flat, widths)
}

// SenderTokensInto writes SenderTokens' rows back to back into
// dst[:rowLen(widths)], group u's 2^w tokens after group u−1's. It
// allocates nothing.
func SenderTokensInto(dst []byte, gaLow []uint64, widths []uint, flip uint64) {
	lt, gt := TokenLT, TokenGT
	if flip == 1 {
		lt, gt = gt, lt
	}
	for u, w := range widths {
		row := dst[:1<<w]
		dst = dst[1<<w:]
		last := u == len(widths)-1
		for pm := range row {
			switch {
			case uint64(pm) < gaLow[u]:
				row[pm] = lt
			case uint64(pm) > gaLow[u]:
				row[pm] = gt
			case last:
				// low(b) == low(a): "less" is false, so the receiver's raw
				// bit must equal the flip.
				row[pm] = gt
			default:
				row[pm] = TokenEQ
			}
		}
	}
}

// rowLen is the byte length of one element's token rows: 2^w per group.
func rowLen(widths []uint) int {
	n := 0
	for _, w := range widths {
		n += 1 << w
	}
	return n
}

// splitRows windows one element's back-to-back token rows into one
// capacity-clipped row per group.
func splitRows(flat []byte, widths []uint) [][]byte {
	rows := make([][]byte, len(widths))
	for u, w := range widths {
		rows[u] = flat[: 1<<w : 1<<w]
		flat = flat[1<<w:]
	}
	return rows
}

// ScanTokens is the receiver's lexicographic combination: the first
// non-EQ token decides. It returns 1 when that token is LT. The sender's
// matrix construction guarantees the last group never yields EQ.
func ScanTokens(tokens []byte) (uint64, error) {
	for i, tk := range tokens {
		switch tk {
		case TokenLT:
			return 1, nil
		case TokenGT:
			return 0, nil
		case TokenEQ:
			continue
		default:
			// Report the position only: the token stream is derived from
			// masked comparison digits and stays out of error text.
			return 0, fmt.Errorf("scm: invalid token at index %d", i)
		}
	}
	return 0, fmt.Errorf("scm: comparison did not terminate (all tokens EQ)")
}

// tokenBits is the packed width of one comparison token: the {LT, EQ, GT}
// alphabet fits in 2 bits, and the coalesced OT transfer packs candidates
// at exactly this width on the wire.
const tokenBits = 2

// batchPlan groups the (element, group) OT instances by arity so a whole
// tensor's comparison runs as one coalesced token transfer: one slice per
// arity, all slices riding a single send/recv pair. Instances are laid out
// by index arithmetic over flat per-tensor slabs, in transfer order: arity
// ascending, then group u, then element v.
type batchPlan struct {
	widths  []uint
	count   int
	arities []int   // distinct arities in ascending order
	byArity [][]int // byArity[bi]: the groups u using arities[bi], ascending
	off     []int   // off[u]: group u's offset within an element's token rows
	rowLen  int     // bytes of one element's token rows
}

// planOver builds the batch plan for an explicit group layout. The arity
// schedule (ascending) comes from a2b.Arities, so both parties derive the
// identical coalesced-transfer shape with no negotiation; u-order within
// an arity follows the layout.
func planOver(widths []uint, count int) batchPlan {
	p := batchPlan{widths: widths, count: count, arities: a2b.Arities(widths), off: make([]int, len(widths))}
	p.byArity = make([][]int, len(p.arities))
	for bi, n := range p.arities {
		for u, w := range widths {
			if 1<<w == n {
				p.byArity[bi] = append(p.byArity[bi], u)
			}
		}
	}
	for u, w := range widths {
		p.off[u] = p.rowLen
		p.rowLen += 1 << w
	}
	return p
}

// sendBatches windows each instance's token row out of slab, which holds
// count × rowLen bytes, element v's rows at v·rowLen. Rows alias slab and
// are capacity-clipped.
func (p batchPlan) sendBatches(slab []byte) []ot.SendTokenBatch {
	rows := make([][]byte, p.count*len(p.widths))
	batches := make([]ot.SendTokenBatch, len(p.arities))
	for bi, n := range p.arities {
		batch := rows[:len(p.byArity[bi])*p.count]
		rows = rows[len(batch):]
		for i, u := range p.byArity[bi] {
			for v := 0; v < p.count; v++ {
				o := v*p.rowLen + p.off[u]
				batch[i*p.count+v] = slab[o : o+n : o+n]
			}
		}
		batches[bi] = ot.SendTokenBatch{N: n, Rows: batch}
	}
	return batches
}

// recvBatches lays each arity's choices out in plan order; groups holds
// count × U values, element v's at v·U.
func (p batchPlan) recvBatches(groups []uint64) []ot.RecvTokenBatch {
	nu := len(p.widths)
	choices := make([]int, p.count*nu)
	batches := make([]ot.RecvTokenBatch, len(p.arities))
	for bi, n := range p.arities {
		batch := choices[:len(p.byArity[bi])*p.count]
		choices = choices[len(batch):]
		for i, u := range p.byArity[bi] {
			for v := 0; v < p.count; v++ {
				batch[i*p.count+v] = int(groups[v*nu+u])
			}
		}
		batches[bi] = ot.RecvTokenBatch{N: n, Choices: batch}
	}
	return batches
}

// scatter writes the received tokens back into per-element group order:
// element v's tokens at received[v·U : (v+1)·U].
func (p batchPlan) scatter(got [][]byte, received []byte) {
	nu := len(p.widths)
	for bi := range p.arities {
		for i, u := range p.byArity[bi] {
			for v := 0; v < p.count; v++ {
				received[v*nu+u] = got[bi][i*p.count+v]
			}
		}
	}
}

// sendRows builds every element's token rows into one count × rowLen slab,
// spread over pool, and sends them as one coalesced transfer. build writes
// element v's rows into dst.
func sendRows(ep *ot.Endpoint, pool *parallel.Pool, widths []uint, count int, build func(v int, dst []byte)) error {
	p := planOver(widths, count)
	slab := make([]byte, count*p.rowLen)
	pool.Blocks(count, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			build(v, slab[v*p.rowLen:(v+1)*p.rowLen])
		}
	})
	return ep.SendTokens(tokenBits, p.sendBatches(slab))
}

// recvScan splits every element into its groups, spread over pool, receives
// the tokens of one coalesced transfer and scans each element's tokens. It
// returns the raw scan bits; split writes element v's U groups into dst. A
// transfer error is wrapped under the prefix what.
func recvScan(ep *ot.Endpoint, pool *parallel.Pool, widths []uint, count int, what string, split func(v int, dst []uint64)) ([]uint64, error) {
	p := planOver(widths, count)
	nu := len(widths)
	groups := make([]uint64, count*nu)
	pool.Blocks(count, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			split(v, groups[v*nu:(v+1)*nu])
		}
	})
	got, err := ep.RecvTokens(tokenBits, p.recvBatches(groups))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	received := make([]byte, count*nu)
	p.scatter(got, received)
	out := make([]uint64, count)
	errs := make([]error, count)
	pool.For(count, func(v int) {
		out[v], errs[v] = ScanTokens(received[v*nu : (v+1)*nu])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MSBSenderPar runs party i's side of the secure sign computation for a
// batch of shared values; xi are party i's arithmetic shares. It returns
// party i's boolean shares m of MSB(x) (the OUT-MSK values). The
// comparison-matrix construction is distributed over the pool (nil runs it
// serially); the OUT-MSK bits are drawn serially first, so the protocol
// transcript is identical at any worker count.
func MSBSenderPar(ep *ot.Endpoint, rng *prg.PRG, r ring.Ring, xi []uint64, pool *parallel.Pool) ([]uint64, error) {
	if r.Bits < 2 {
		return nil, fmt.Errorf("scm: ring must have at least 2 bits, got %d", r.Bits)
	}
	sp := ep.Trace.Enter("scm.msb", telemetry.WithAttrs(
		telemetry.Int("elems", int64(len(xi))), telemetry.Int("bits", int64(r.Bits))))
	defer ep.Trace.Exit(sp)
	m := make([]uint64, len(xi))
	for v := range m {
		m[v] = rng.Bit()
	}
	widths := a2b.LowGroups(r.Bits)
	err := sendRows(ep, pool, widths, len(xi), func(v int, dst []byte) {
		a := r.Neg(xi[v])
		var ga [a2b.MaxU]uint64
		a2b.SplitLowInto(ga[:], r, a)
		SenderTokensInto(dst, ga[:], widths, m[v]^r.MSB(a))
	})
	if err != nil {
		return nil, fmt.Errorf("scm: token transfer: %w", err)
	}
	return m, nil
}

// MSBReceiverPar runs party j's side; xj are party j's arithmetic shares.
// It returns party j's boolean shares MSB(x) ⊕ m. The A2BM splits and
// token scans are distributed over the pool (nil runs them serially).
func MSBReceiverPar(ep *ot.Endpoint, r ring.Ring, xj []uint64, pool *parallel.Pool) ([]uint64, error) {
	if r.Bits < 2 {
		return nil, fmt.Errorf("scm: ring must have at least 2 bits, got %d", r.Bits)
	}
	sp := ep.Trace.Enter("scm.msb", telemetry.WithAttrs(
		telemetry.Int("elems", int64(len(xj))), telemetry.Int("bits", int64(r.Bits))))
	defer ep.Trace.Exit(sp)
	out, err := recvScan(ep, pool, a2b.LowGroups(r.Bits), len(xj), "scm: token transfer", func(v int, dst []uint64) {
		a2b.SplitLowInto(dst, r, xj[v])
	})
	if err != nil {
		return nil, err
	}
	for v := range out {
		out[v] ^= r.MSB(xj[v])
	}
	return out, nil
}
