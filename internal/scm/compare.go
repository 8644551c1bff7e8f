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

// Generic unsigned two-party comparison over the full ℓ-bit A2BM layout.
// Party i (sender) holds a, party j (receiver) holds b; the parties end
// with boolean shares of a strict predicate on (b, a). This is the same
// token machinery as the sign protocol, re-used by the share ring-extension
// (computing the unsigned wrap bit) and by tests.

// Rel selects the predicate, phrased from the receiver's perspective.
type Rel int

const (
	// BLtA computes [b < a].
	BLtA Rel = iota
	// BGtA computes [b > a].
	BGtA
)

// PredTokens builds the token rows for a strict predicate: the receiver's
// lexicographic scan yields the LT label exactly when the predicate holds
// (before unmasking). Equality in the final group resolves to "false".
func PredTokens(ga []uint64, widths []uint, flip uint64, rel Rel) [][]byte {
	flat := make([]byte, rowLen(widths))
	PredTokensInto(flat, ga, widths, flip, rel)
	return splitRows(flat, widths)
}

// PredTokensInto writes PredTokens' rows back to back into
// dst[:rowLen(widths)]. It allocates nothing.
func PredTokensInto(dst []byte, ga []uint64, widths []uint, flip uint64, rel Rel) {
	trueLab, falseLab := TokenLT, TokenGT
	if flip == 1 {
		trueLab, falseLab = falseLab, trueLab
	}
	for u, w := range widths {
		row := dst[:1<<w]
		dst = dst[1<<w:]
		last := u == len(widths)-1
		for pm := range row {
			var tok byte
			switch {
			case uint64(pm) == ga[u]:
				if last {
					tok = falseLab // strict predicate is false on equality
				} else {
					tok = TokenEQ
				}
			case (uint64(pm) < ga[u]) == (rel == BLtA):
				tok = trueLab
			default:
				tok = falseLab
			}
			row[pm] = tok
		}
	}
}

// CmpSenderPar runs party i's side of the batched unsigned comparison for
// its values a, returning its boolean shares (the masks). The token-matrix
// construction is distributed over the pool (nil runs it serially); the
// masks are drawn serially so the transcript is identical at any worker
// count.
func CmpSenderPar(ep *ot.Endpoint, rng *prg.PRG, r ring.Ring, a []uint64, rel Rel, pool *parallel.Pool) ([]uint64, error) {
	sp := ep.Trace.Enter("scm.cmp", telemetry.WithAttrs(
		telemetry.Int("elems", int64(len(a))), telemetry.Int("bits", int64(r.Bits))))
	defer ep.Trace.Exit(sp)
	m := make([]uint64, len(a))
	for v := range m {
		m[v] = rng.Bit()
	}
	widths := a2b.Groups(r.Bits)
	err := sendRows(ep, pool, widths, len(a), func(v int, dst []byte) {
		var ga [a2b.MaxU]uint64
		a2b.SplitInto(ga[:], r, a[v])
		PredTokensInto(dst, ga[:], widths, m[v], rel)
	})
	if err != nil {
		return nil, fmt.Errorf("scm: compare token transfer: %w", err)
	}
	return m, nil
}

// CmpReceiverPar runs party j's side for its values b, returning its
// boolean shares (predicate ⊕ mask). The A2BM splits and token scans are
// distributed over the pool (nil runs them serially).
func CmpReceiverPar(ep *ot.Endpoint, r ring.Ring, b []uint64, rel Rel, pool *parallel.Pool) ([]uint64, error) {
	sp := ep.Trace.Enter("scm.cmp", telemetry.WithAttrs(
		telemetry.Int("elems", int64(len(b))), telemetry.Int("bits", int64(r.Bits))))
	defer ep.Trace.Exit(sp)
	return recvScan(ep, pool, a2b.Groups(r.Bits), len(b), "scm: compare token transfer", func(v int, dst []uint64) {
		a2b.SplitInto(dst, r, b[v])
	})
}
