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

func TestMatMulModParMatchesSerial(t *testing.T) {
	g := prg.NewSeeded(41)
	r := ring.New(24)
	for _, dims := range [][3]int{{1, 1, 1}, {7, 5, 3}, {16, 9, 11}, {33, 17, 8}, {64, 32, 10}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randMat(g, m*k, r)
		b := randMat(g, k*n, r)
		want := MatMulMod(a, b, m, k, n, r.Mask)
		for _, workers := range []uint{1, 2, 4, 7} {
			got := MatMulModPar(parallel.New(workers), a, b, m, k, n, r.Mask)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("dims %v workers %d: elem %d = %d, want %d", dims, workers, i, got[i], want[i])
				}
			}
		}
		// A nil pool must take the serial path.
		got := MatMulModPar(nil, a, b, m, k, n, r.Mask)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("nil pool diverged at %d", i)
			}
		}
	}
}

func TestMatMulFloatParMatchesSerial(t *testing.T) {
	g := prg.NewSeeded(43)
	m, k, n := 29, 13, 7
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	for i := range a {
		a[i] = g.NormFloat64()
	}
	for i := range b {
		b[i] = g.NormFloat64()
	}
	want := MatMulFloat(a, b, m, k, n)
	got := MatMulFloatPar(parallel.New(4), a, b, m, k, n)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("elem %d = %v, want %v (must be bit-identical)", i, got[i], want[i])
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
		want := Im2ColInt(img, geom)
		for _, workers := range []uint{1, 3, 8} {
			got := Im2ColIntPar(parallel.New(workers), img, geom)
			if len(got) != len(want) {
				t.Fatalf("%+v: len %d vs %d", geom, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%+v workers %d: elem %d = %d, want %d", geom, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestHotKernelsAllocFree is the online hot path's allocation gate: the
// Into kernels, serial and through a nil pool, write into caller-owned
// memory and allocate nothing. Allocation-freedom does not depend on size,
// so small shapes suffice.
func TestHotKernelsAllocFree(t *testing.T) {
	g := prg.NewSeeded(53)
	r := ring.New(32)
	const d = 64
	a, b, dst := randMat(g, d*d, r), randMat(g, d*d, r), make([]uint64, d*d)
	geom := ConvGeom{InC: 2, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	img, cols := randMat(g, geom.InC*geom.InH*geom.InW, r), make([]uint64, geom.Patches()*geom.PatchLen())
	for name, f := range map[string]func(){
		"MatMulModInto":    func() { MatMulModInto(dst, a, b, d, d, d, r.Mask) },
		"MatMulModParInto": func() { MatMulModParInto(nil, dst, a, b, d, d, d, r.Mask) },
		"Im2ColIntInto":    func() { Im2ColIntInto(cols, img, geom) },
		"Im2ColIntParInto": func() { Im2ColIntParInto(nil, cols, img, geom) },
	} {
		if n := testing.AllocsPerRun(5, f); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, n)
		}
	}
}

// The acceptance benchmark: serial vs Workers:4 on a 512×512×512 modular
// GEMM. On a multi-core host the parallel variant must be ≥2× faster.
func benchmarkMatMulMod(b *testing.B, workers uint) {
	g := prg.NewSeeded(7)
	r := ring.New(32)
	const d = 512
	a := randMat(g, d*d, r)
	bb := randMat(g, d*d, r)
	p := parallel.New(workers)
	b.SetBytes(int64(d * d * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulModPar(p, a, bb, d, d, d, r.Mask)
	}
}

func BenchmarkMatMulMod512_Workers1(b *testing.B) { benchmarkMatMulMod(b, 1) }
func BenchmarkMatMulMod512_Workers2(b *testing.B) { benchmarkMatMulMod(b, 2) }
func BenchmarkMatMulMod512_Workers4(b *testing.B) { benchmarkMatMulMod(b, 4) }

// BenchmarkMatMulMod512 is the serial 512³ modular GEMM through the Into
// hot path with a caller-owned destination; TestHotKernelsAllocFree gates
// its allocation count.
func BenchmarkMatMulMod512(b *testing.B) {
	g := prg.NewSeeded(7)
	r := ring.New(32)
	const d = 512
	a := randMat(g, d*d, r)
	bb := randMat(g, d*d, r)
	dst := make([]uint64, d*d)
	b.SetBytes(int64(d * d * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulModInto(dst, a, bb, d, d, d, r.Mask)
	}
}
