package secure

import (
	"fmt"
	"math"

	"aq2pnn/internal/ring"
	"aq2pnn/internal/tensor"
)

// 2PC pooling. Max pooling is a tournament of secure maxima,
// max(a, b) = a + ReLU(b − a), so each stage costs one batched ABReLU over
// every still-active pair — the communication the paper's Sec. 6.5
// identifies as the max-pooling penalty. Average pooling sums on the
// AS-ALU and divides by share truncation: one truncation per
// power-of-two window size, two otherwise.

// MaxPool computes shares of the channel-wise max pool of a (C,H,W) tensor
// with a logarithmic tournament: each stage halves every window's
// candidate set, so a K-element window needs ⌈log₂K⌉ batched ABReLU
// stages and Σ(K−1) comparisons over all windows.
func (c *Context) MaxPool(r ring.Ring, x []uint64, g tensor.ConvGeom) ([]uint64, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(x) != g.InC*g.InH*g.InW {
		return nil, fmt.Errorf("secure: MaxPool input %d for %v", len(x), g)
	}
	// Per-window candidate lists.
	var wins [][]uint64
	var outIdx []int
	tensor.PoolWindows(g, func(oi int, in []int) {
		vals := make([]uint64, len(in))
		for k, ii := range in {
			vals[k] = x[ii]
		}
		wins = append(wins, vals)
		outIdx = append(outIdx, oi)
	})
	for {
		// Gather one pair per window with ≥2 candidates.
		var diffs []uint64
		var where [][2]int // window, slot of the surviving candidate
		for wi, vals := range wins {
			for p := 0; p+1 < len(vals); p += 2 {
				diffs = append(diffs, r.Sub(vals[p+1], vals[p]))
				where = append(where, [2]int{wi, p})
			}
		}
		if len(diffs) == 0 {
			break
		}
		relu, err := c.ABReLU(r, diffs)
		if err != nil {
			return nil, fmt.Errorf("secure: MaxPool stage: %w", err)
		}
		for k, w := range where {
			wins[w[0]][w[1]] = r.Add(wins[w[0]][w[1]], relu[k])
		}
		// Compact: the survivors sit at the even slots (an unpaired trailing
		// candidate is itself at an even index).
		for wi, vals := range wins {
			next := vals[:0]
			for p := 0; p < len(vals); p += 2 {
				next = append(next, vals[p])
			}
			wins[wi] = next
		}
	}
	out := make([]uint64, g.InC*g.OutH()*g.OutW())
	for wi, vals := range wins {
		out[outIdx[wi]] = vals[0]
	}
	return out, nil
}

// AvgPool computes shares of the channel-wise average pool. For
// power-of-two window sizes the division is an exact share truncation; for
// other sizes (e.g. the 7×7 global pool of ResNet) a dyadic reciprocal
// round(2^s / count)·x >> s approximates the division, using AS-ALU
// operations only.
func (c *Context) AvgPool(r ring.Ring, x []uint64, g tensor.ConvGeom) ([]uint64, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(x) != g.InC*g.InH*g.InW {
		return nil, fmt.Errorf("secure: AvgPool input %d for %v", len(x), g)
	}
	out := make([]uint64, g.InC*g.OutH()*g.OutW())
	counts := make([]int, len(out))
	tensor.PoolWindows(g, func(oi int, in []int) {
		var sum uint64
		for _, ii := range in {
			sum = r.Add(sum, x[ii])
		}
		out[oi] = sum
		counts[oi] = len(in)
	})
	// Divide per distinct window size (borders may differ under padding).
	byCount := map[int][]int{}
	for oi, n := range counts {
		byCount[n] = append(byCount[n], oi)
	}
	for n, idxs := range byCount {
		if n == 0 {
			return nil, fmt.Errorf("secure: AvgPool empty window")
		}
		if n&(n-1) == 0 { // power of two: division is a pure truncation
			d := uint(math.Log2(float64(n)))
			sub := make([]uint64, len(idxs))
			for k, oi := range idxs {
				sub[k] = out[oi]
			}
			if err := c.RequantTruncate(r, sub, d); err != nil {
				return nil, err
			}
			for k, oi := range idxs {
				out[oi] = sub[k]
			}
			continue
		}
		// Non-power-of-two windows: two-stage dyadic division
		// y = ((sum >> t0) · round(2^(t0+t1)/n)) >> t1, which keeps every
		// pre-truncation magnitude within the faithful-truncation contract
		// (|v| < Q/4) while approximating 1/n to ≈1.6%.
		t0 := uint(0)
		for 1<<(t0+1) <= n {
			t0++
		}
		t0++
		const t1 = 5
		recip := int64(math.Round(float64(uint64(1)<<(t0+t1)) / float64(n)))
		sub := make([]uint64, len(idxs))
		for k, oi := range idxs {
			sub[k] = out[oi]
		}
		if err := c.RequantTruncate(r, sub, t0); err != nil {
			return nil, err
		}
		for k := range sub {
			sub[k] = r.MulConst(sub[k], recip)
		}
		if err := c.RequantTruncate(r, sub, t1); err != nil {
			return nil, err
		}
		for k, oi := range idxs {
			out[oi] = sub[k]
		}
	}
	return out, nil
}
