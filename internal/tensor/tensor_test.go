package tensor

import (
	"math"
	"testing"

	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
)

func ringOf(bits uint) ring.Ring { return ring.New(bits) }

func TestShapeNumelEqual(t *testing.T) {
	if (Shape{2, 3, 4}).Numel() != 24 {
		t.Error("Numel wrong")
	}
	if (Shape{}).Numel() != 0 {
		t.Error("empty shape Numel should be 0")
	}
	if !(Shape{1, 2}).Equal(Shape{1, 2}) || (Shape{1, 2}).Equal(Shape{2, 1}) || (Shape{1}).Equal(Shape{1, 1}) {
		t.Error("Equal wrong")
	}
}

func TestNewIntFromPanics(t *testing.T) {
	tt := NewInt(2, 3)
	if len(tt.Data) != 6 {
		t.Error("NewInt size")
	}
	defer func() {
		if recover() == nil {
			t.Error("IntFrom with bad length did not panic")
		}
	}()
	IntFrom([]uint64{1, 2, 3}, 2, 2)
}

func TestConvGeomDims(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 32, InW: 32, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.OutH() != 32 || g.OutW() != 32 {
		t.Errorf("same-pad 3x3 output %dx%d", g.OutH(), g.OutW())
	}
	if g.PatchLen() != 27 || g.Patches() != 1024 {
		t.Error("patch geometry wrong")
	}
	if g.MACs() != int64(16)*1024*27 {
		t.Error("MACs wrong")
	}
	g2 := ConvGeom{InC: 3, InH: 224, InW: 224, OutC: 64, KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}
	if g2.OutH() != 112 || g2.OutW() != 112 {
		t.Errorf("resnet stem output %dx%d", g2.OutH(), g2.OutW())
	}
	bad := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, StrideH: 1, StrideW: 1}
	if bad.Validate() == nil {
		t.Error("kernel larger than padded input should be invalid")
	}
}

// Direct convolution reference for validating the im2col path.
func convDirect(img []uint64, w []uint64, g ConvGeom, mask uint64) []uint64 {
	oh, ow := g.OutH(), g.OutW()
	out := make([]uint64, g.OutC*oh*ow)
	for oc := 0; oc < g.OutC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var acc uint64
				for c := 0; c < g.InC; c++ {
					for ky := 0; ky < g.KH; ky++ {
						iy := oy*g.StrideH + ky - g.PadH
						if iy < 0 || iy >= g.InH {
							continue
						}
						for kx := 0; kx < g.KW; kx++ {
							ix := ox*g.StrideW + kx - g.PadW
							if ix < 0 || ix >= g.InW {
								continue
							}
							wv := w[((oc*g.InC+c)*g.KH+ky)*g.KW+kx]
							acc = (acc + img[(c*g.InH+iy)*g.InW+ix]*wv) & mask
						}
					}
				}
				out[(oc*oh+oy)*ow+ox] = acc
			}
		}
	}
	return out
}

func TestIm2ColMatchesDirectConv(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 7, InW: 6, OutC: 4, KH: 3, KW: 3, StrideH: 2, StrideW: 1, PadH: 1, PadW: 1}
	mask := uint64(1)<<16 - 1
	rng := prg.NewSeeded(11)
	img := rng.Elems(g.InC*g.InH*g.InW, ringOf(16))
	w := rng.Elems(g.OutC*g.PatchLen(), ringOf(16))
	cols := make([]uint64, g.Patches()*g.PatchLen()) // (patches, patchLen)
	Im2ColIntParInto(nil, cols, img, g)
	// out[p][oc] = cols(p,:) · w(oc,:) → compute as cols × wᵀ.
	wt := make([]uint64, len(w))
	pl := g.PatchLen()
	for oc := 0; oc < g.OutC; oc++ {
		for i := 0; i < pl; i++ {
			wt[i*g.OutC+oc] = w[oc*pl+i]
		}
	}
	got := make([]uint64, g.Patches()*g.OutC)
	MatMulModParInto(nil, got, cols, wt, g.Patches(), pl, g.OutC, mask)
	want := convDirect(img, w, g, mask)
	oh, ow := g.OutH(), g.OutW()
	for oc := 0; oc < g.OutC; oc++ {
		for p := 0; p < g.Patches(); p++ {
			if got[p*g.OutC+oc] != want[oc*oh*ow+p] {
				t.Fatalf("conv mismatch at oc=%d p=%d: %d vs %d", oc, p, got[p*g.OutC+oc], want[oc*oh*ow+p])
			}
		}
	}
}

func TestMatMulFloatKnown(t *testing.T) {
	a := []float64{1, 2, 3, 4} // 2x2
	b := []float64{5, 6, 7, 8} // 2x2
	c := MatMulFloat(a, b, 2, 2, 2)
	want := []float64{19, 22, 43, 50}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("MatMulFloat = %v", c)
		}
	}
}

func TestTransposeFloat(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6} // 2x3
	at := TransposeFloat(a, 2, 3)
	want := []float64{1, 4, 2, 5, 3, 6}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("Transpose = %v", at)
		}
	}
}

func TestCol2ImIsAdjoint(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> for random x, y: the defining
	// property the backward pass relies on.
	g := ConvGeom{InC: 2, InH: 5, InW: 5, OutC: 1, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	rng := prg.NewSeeded(5)
	x := make([]float64, g.InC*g.InH*g.InW)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, g.Patches()*g.PatchLen())
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	cols := Im2ColFloat(x, g)
	var lhs float64
	for i := range cols {
		lhs += cols[i] * y[i]
	}
	img := Col2ImFloat(y, g)
	var rhs float64
	for i := range img {
		rhs += img[i] * x[i]
	}
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Errorf("adjoint property violated: %f vs %f", lhs, rhs)
	}
}

func TestPoolWindows(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	count := 0
	PoolWindows(g, func(out int, in []int) {
		if len(in) != 4 {
			t.Errorf("window %d has %d elements", out, len(in))
		}
		count++
	})
	if count != 4 {
		t.Errorf("expected 4 windows, got %d", count)
	}
	// Border truncation with odd size and stride 2.
	g2 := ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	sizes := map[int]int{}
	PoolWindows(g2, func(out int, in []int) { sizes[out] = len(in) })
	if sizes[0] != 1 { // top-left window only overlaps one real pixel
		t.Errorf("padded corner window size = %d, want 1", sizes[0])
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewFloat(2, 2)
	a.Data[0] = 7
	b := a.Clone()
	b.Data[0] = 9
	if a.Data[0] != 7 {
		t.Error("Clone aliases data")
	}
	c := NewInt(3)
	c.Data[1] = 5
	d := c.Clone()
	d.Data[1] = 6
	if c.Data[1] != 5 {
		t.Error("Int Clone aliases data")
	}
}

func BenchmarkMatMulMod64(b *testing.B) {
	rng := prg.NewSeeded(1)
	m, k, n := 64, 64, 64
	x := rng.Elems(m*k, ringOf(16))
	y := rng.Elems(k*n, ringOf(16))
	dst := make([]uint64, m*n)
	b.SetBytes(int64(m * k * n))
	for i := 0; i < b.N; i++ {
		MatMulModParInto(nil, dst, x, y, m, k, n, 0xFFFF)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	g := ConvGeom{InC: 16, InH: 32, InW: 32, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	rng := prg.NewSeeded(1)
	img := rng.Elems(g.InC*g.InH*g.InW, ringOf(16))
	cols := make([]uint64, g.Patches()*g.PatchLen())
	for i := 0; i < b.N; i++ {
		Im2ColIntParInto(nil, cols, img, g)
	}
}
