package tensor

import (
	"testing"

	"aq2pnn/internal/parallel"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
)

func randMat(g *prg.PRG, n int, r ring.Ring) []uint64 {
	return g.Elems(n, r)
}

// TestMatMulModParMatchesSerial checks the GEMM against a per-element dot
// product at a nil pool and at several worker counts, with dims on both
// sides of parRowThreshold.
func TestMatMulModParMatchesSerial(t *testing.T) {
	g := prg.NewSeeded(41)
	r := ring.New(24)
	for _, dims := range [][3]int{{1, 1, 1}, {7, 5, 3}, {16, 9, 11}, {33, 17, 8}, {64, 32, 10}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randMat(g, m*k, r)
		b := randMat(g, k*n, r)
		want := make([]uint64, m*n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var acc uint64
				for q := 0; q < k; q++ {
					acc += a[i*k+q] * b[q*n+j]
				}
				want[i*n+j] = acc & r.Mask
			}
		}
		for _, p := range []*parallel.Pool{nil, parallel.New(1), parallel.New(2), parallel.New(4), parallel.New(7)} {
			got := make([]uint64, m*n)
			for i := range got {
				got[i] = ^uint64(0) // the kernel must clear dst
			}
			MatMulModParInto(p, got, a, b, m, k, n, r.Mask)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("dims %v workers %d: elem %d = %d, want %d", dims, p.Workers(), i, got[i], want[i])
				}
			}
		}
	}
}

func TestIm2ColIntParMatchesSerial(t *testing.T) {
	g := prg.NewSeeded(47)
	r := ring.New(16)
	geoms := []ConvGeom{
		{InC: 1, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 3, InH: 14, InW: 14, OutC: 8, KH: 5, KW: 5, StrideH: 2, StrideW: 2, PadH: 2, PadW: 2},
		{InC: 2, InH: 5, InW: 7, OutC: 2, KH: 2, KW: 3, StrideH: 1, StrideW: 2},
	}
	for _, geom := range geoms {
		img := randMat(g, geom.InC*geom.InH*geom.InW, r)
		want := make([]uint64, geom.Patches()*geom.PatchLen())
		Im2ColIntParInto(nil, want, img, geom)
		for _, workers := range []uint{1, 3, 8} {
			got := make([]uint64, len(want))
			Im2ColIntParInto(parallel.New(workers), got, img, geom)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%+v workers %d: elem %d = %d, want %d", geom, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestHotKernelsAllocFree is the online hot path's allocation gate: the
// kernels write into caller-owned memory and allocate nothing on the
// serial path, whether the pool is nil or the row count is below
// parRowThreshold. Allocation-freedom does not depend on size, so small
// shapes suffice.
func TestHotKernelsAllocFree(t *testing.T) {
	g := prg.NewSeeded(53)
	r := ring.New(32)
	const d, small = 64, parRowThreshold - 1
	a, b, dst := randMat(g, d*d, r), randMat(g, d*d, r), make([]uint64, d*d)
	geom := ConvGeom{InC: 2, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	img, cols := randMat(g, geom.InC*geom.InH*geom.InW, r), make([]uint64, geom.Patches()*geom.PatchLen())
	pool := parallel.New(4)
	for name, f := range map[string]func(){
		"MatMulModParInto(nil)":        func() { MatMulModParInto(nil, dst, a, b, d, d, d, r.Mask) },
		"Im2ColIntParInto(nil)":        func() { Im2ColIntParInto(nil, cols, img, geom) },
		"MatMulModParInto(4, m < thr)": func() { MatMulModParInto(pool, dst[:small*d], a[:small*d], b, small, d, d, r.Mask) },
	} {
		if n := testing.AllocsPerRun(5, f); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, n)
		}
	}
}

// The acceptance benchmark: serial vs Workers:4 on a 512×512×512 modular
// GEMM into a caller-owned destination. On a multi-core host the parallel
// variant must be ≥2× faster; Workers1 is the serial hot path and reports
// 0 allocs/op (TestHotKernelsAllocFree gates that).
func benchmarkMatMulMod(b *testing.B, workers uint) {
	g := prg.NewSeeded(7)
	r := ring.New(32)
	const d = 512
	a := randMat(g, d*d, r)
	bb := randMat(g, d*d, r)
	dst := make([]uint64, d*d)
	p := parallel.New(workers)
	b.SetBytes(int64(d * d * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulModParInto(p, dst, a, bb, d, d, d, r.Mask)
	}
}

func BenchmarkMatMulMod512_Workers1(b *testing.B) { benchmarkMatMulMod(b, 1) }
func BenchmarkMatMulMod512_Workers2(b *testing.B) { benchmarkMatMulMod(b, 2) }
func BenchmarkMatMulMod512_Workers4(b *testing.B) { benchmarkMatMulMod(b, 4) }
