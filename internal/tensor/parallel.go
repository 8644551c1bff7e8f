package tensor

import (
	"fmt"

	"aq2pnn/internal/parallel"
)

// The integer kernels. Each one has a single [lo, hi) row function: a nil,
// serial or below-threshold call runs it once over every row, and otherwise
// the pool partitions the output into disjoint contiguous row ranges and
// runs it once per range. Per-row accumulation order never changes, only
// which goroutine owns a row, so the result is bit-identical at any worker
// count. The row functions stay named so the serial path creates no
// closure and allocates nothing.

// parRowThreshold is the smallest per-kernel output row count worth forking
// for; below it the goroutine handoff costs more than the arithmetic.
const parRowThreshold = 8

// MatMulModParInto computes dst = A(m×k) × B(k×n) with every product and
// sum reduced by the mask (i.e. modulo Q = mask+1), row-blocked over the
// pool. It is the plaintext-domain ring GEMM behind AS-GEMM and the
// reference it is verified against. dst has length m·n and is cleared
// first; it may not alias a or b.
func MatMulModParInto(p *parallel.Pool, dst, a, b []uint64, m, k, n int, mask uint64) {
	if len(a) != m*k || len(b) != k*n || len(dst) != m*n {
		panic(fmt.Sprintf("tensor: MatMulModParInto dims %dx%d × %dx%d with lens %d,%d,%d", m, k, k, n, len(a), len(b), len(dst)))
	}
	if p.Workers() == 1 || m < parRowThreshold {
		matMulModRows(dst, a, b, k, n, mask, 0, m)
		return
	}
	p.Blocks(m, func(lo, hi int) { matMulModRows(dst, a, b, k, n, mask, lo, hi) })
}

// matMulModRows writes rows [lo, hi) of dst = A × B mod (mask+1).
func matMulModRows(dst, a, b []uint64, k, n int, mask uint64, lo, hi int) {
	clear(dst[lo*n : hi*n])
	for i := lo; i < hi; i++ {
		ar := a[i*k : (i+1)*k]
		cr := dst[i*n : (i+1)*n]
		for q := 0; q < k; q++ {
			av := ar[q]
			br := b[q*n : (q+1)*n]
			for j := 0; j < n; j++ {
				cr[j] = (cr[j] + av*br[j]) & mask
			}
		}
	}
}

// Im2ColIntParInto lowers an NCHW (C,H,W) integer image into the
// (Patches, PatchLen) GEMM matrix so convolution becomes GEMM, mirroring
// how the accelerator's LOAD module streams patches into the AS-INP
// buffer. The patch rows are distributed over the pool. dst has length
// Patches·PatchLen and is cleared first, so padding positions are 0; it
// may not alias img.
func Im2ColIntParInto(p *parallel.Pool, dst, img []uint64, g ConvGeom) {
	patches, pl := g.Patches(), g.PatchLen()
	if len(dst) != patches*pl {
		panic(fmt.Sprintf("tensor: Im2ColIntParInto dst length %d for %d patches of %d", len(dst), patches, pl))
	}
	if p.Workers() == 1 || patches < parRowThreshold {
		im2colRows(dst, img, g, 0, patches)
		return
	}
	p.Blocks(patches, func(lo, hi int) { im2colRows(dst, img, g, lo, hi) })
}

// im2colRows writes the patch rows [lo, hi) of img's im2col matrix into
// dst; integer inference and float training share it.
func im2colRows[T uint64 | float64](dst, img []T, g ConvGeom, lo, hi int) {
	pl, ow := g.PatchLen(), g.OutW()
	clear(dst[lo*pl : hi*pl])
	for pi := lo; pi < hi; pi++ {
		oy, ox := pi/ow, pi%ow
		idx := pi * pl
		for c := 0; c < g.InC; c++ {
			for ky := 0; ky < g.KH; ky++ {
				iy := oy*g.StrideH + ky - g.PadH
				for kx := 0; kx < g.KW; kx++ {
					ix := ox*g.StrideW + kx - g.PadW
					if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
						dst[idx] = img[(c*g.InH+iy)*g.InW+ix]
					}
					idx++
				}
			}
		}
	}
}
