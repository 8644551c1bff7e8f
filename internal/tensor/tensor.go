// Package tensor provides the small dense-tensor substrate shared by the
// plaintext DNN library, the quantizer, the training code and the secure
// operators. Integer tensors carry ring elements (uint64); float tensors
// carry float64 for training and calibration.
//
// Layout is row-major NCHW for images and (rows, cols) for matrices.
package tensor

import "fmt"

// Shape is the dimension list of a tensor, outermost first.
type Shape []int

// Numel returns the number of elements, or 0 for an empty shape.
func (s Shape) Numel() int {
	if len(s) == 0 {
		return 0
	}
	n := 1
	for _, d := range s {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", s))
		}
		n *= d
	}
	return n
}

// Equal reports whether two shapes are identical.
func (s Shape) Equal(t Shape) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the shape.
func (s Shape) Clone() Shape { return append(Shape(nil), s...) }

func (s Shape) String() string { return fmt.Sprint([]int(s)) }

// Int is a dense tensor of ring elements.
type Int struct {
	Shape Shape
	Data  []uint64
}

// NewInt allocates a zeroed integer tensor.
func NewInt(shape ...int) *Int {
	s := Shape(shape)
	return &Int{Shape: s.Clone(), Data: make([]uint64, s.Numel())}
}

// IntFrom wraps existing data; len(data) must equal the shape's element
// count.
func IntFrom(data []uint64, shape ...int) *Int {
	s := Shape(shape)
	if len(data) != s.Numel() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), s))
	}
	return &Int{Shape: s.Clone(), Data: data}
}

// Clone deep-copies the tensor.
func (t *Int) Clone() *Int {
	c := NewInt(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Float is a dense tensor of float64 values.
type Float struct {
	Shape Shape
	Data  []float64
}

// NewFloat allocates a zeroed float tensor.
func NewFloat(shape ...int) *Float {
	s := Shape(shape)
	return &Float{Shape: s.Clone(), Data: make([]float64, s.Numel())}
}

// FloatFrom wraps existing data.
func FloatFrom(data []float64, shape ...int) *Float {
	s := Shape(shape)
	if len(data) != s.Numel() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), s))
	}
	return &Float{Shape: s.Clone(), Data: data}
}

// Clone deep-copies the tensor.
func (t *Float) Clone() *Float {
	c := NewFloat(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// ConvGeom describes a 2D convolution/pooling geometry. All operators in
// the system (plaintext, quantized and 2PC) share it, so the shapes that
// drive the cost model are the shapes that drive the actual computation.
type ConvGeom struct {
	InC, InH, InW    int // input channels and spatial size
	OutC             int // output channels (ignored for pooling)
	KH, KW           int // kernel size
	StrideH, StrideW int
	PadH, PadW       int
}

// OutH returns the output height.
func (g ConvGeom) OutH() int { return (g.InH+2*g.PadH-g.KH)/g.StrideH + 1 }

// OutW returns the output width.
func (g ConvGeom) OutW() int { return (g.InW+2*g.PadW-g.KW)/g.StrideW + 1 }

// Validate checks the geometry for consistency.
func (g ConvGeom) Validate() error {
	switch {
	case g.InC <= 0 || g.InH <= 0 || g.InW <= 0:
		return fmt.Errorf("tensor: non-positive input dims %+v", g)
	case g.KH <= 0 || g.KW <= 0:
		return fmt.Errorf("tensor: non-positive kernel %+v", g)
	case g.StrideH <= 0 || g.StrideW <= 0:
		return fmt.Errorf("tensor: non-positive stride %+v", g)
	case g.PadH < 0 || g.PadW < 0:
		return fmt.Errorf("tensor: negative padding %+v", g)
	case g.OutH() <= 0 || g.OutW() <= 0:
		return fmt.Errorf("tensor: empty output %+v", g)
	}
	return nil
}

// PatchLen is the length of one im2col column: InC*KH*KW.
func (g ConvGeom) PatchLen() int { return g.InC * g.KH * g.KW }

// Patches is the number of output positions: OutH*OutW.
func (g ConvGeom) Patches() int { return g.OutH() * g.OutW() }

// MACs returns the multiply-accumulate count of the convolution, the
// quantity the AS-GEMM cycle model is driven by.
func (g ConvGeom) MACs() int64 {
	return int64(g.OutC) * int64(g.Patches()) * int64(g.PatchLen())
}

// Im2ColFloat is the float64 analogue of Im2ColIntParInto, used by
// training.
func Im2ColFloat(img []float64, g ConvGeom) []float64 {
	out := make([]float64, g.Patches()*g.PatchLen())
	im2colRows(out, img, g, 0, g.Patches())
	return out
}

// Col2ImFloat scatters an im2col gradient matrix back onto the image,
// accumulating overlapping patches. It is the adjoint of Im2ColFloat.
func Col2ImFloat(cols []float64, g ConvGeom) []float64 {
	oh, ow := g.OutH(), g.OutW()
	img := make([]float64, g.InC*g.InH*g.InW)
	idx := 0
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for c := 0; c < g.InC; c++ {
				for ky := 0; ky < g.KH; ky++ {
					iy := oy*g.StrideH + ky - g.PadH
					for kx := 0; kx < g.KW; kx++ {
						ix := ox*g.StrideW + kx - g.PadW
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
							img[(c*g.InH+iy)*g.InW+ix] += cols[idx]
						}
						idx++
					}
				}
			}
		}
	}
	return img
}

// MatMulFloat computes C = A(m×k) × B(k×n) in float64.
func MatMulFloat(a, b []float64, m, k, n int) []float64 {
	if len(a) != m*k || len(b) != k*n {
		panic(fmt.Sprintf("tensor: MatMulFloat dims %dx%d × %dx%d with lens %d,%d", m, k, k, n, len(a), len(b)))
	}
	c := make([]float64, m*n)
	for i := 0; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		cr := c[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := ar[p]
			if av == 0 {
				continue
			}
			br := b[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				cr[j] += av * br[j]
			}
		}
	}
	return c
}

// TransposeFloat returns Bᵀ for a (m×n) matrix.
func TransposeFloat(a []float64, m, n int) []float64 {
	out := make([]float64, len(a))
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out[j*m+i] = a[i*n+j]
		}
	}
	return out
}

// PoolWindows iterates the pooling windows of g, invoking fn with the output
// index and the flat input indices of the (possibly truncated at borders)
// window. Pooling layers (max, average) in both domains share this
// iteration so window semantics can never diverge between plaintext and
// 2PC execution.
func PoolWindows(g ConvGeom, fn func(outIdx int, inIdx []int)) {
	oh, ow := g.OutH(), g.OutW()
	idxBuf := make([]int, 0, g.KH*g.KW)
	for c := 0; c < g.InC; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				idxBuf = idxBuf[:0]
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
						idxBuf = append(idxBuf, (c*g.InH+iy)*g.InW+ix)
					}
				}
				fn((c*oh+oy)*ow+ox, idxBuf)
			}
		}
	}
}
