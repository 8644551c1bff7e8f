package secure

import (
	"testing"

	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/share"
	"aq2pnn/internal/tensor"
	"aq2pnn/internal/triple"
)

// mulMod is the serial ring GEMM A(m×k) × B(k×n) into a fresh matrix.
func mulMod(a, b []uint64, m, k, n int, r ring.Ring) []uint64 {
	c := make([]uint64, m*n)
	tensor.MatMulModParInto(nil, c, a, b, m, k, n, r.Mask)
	return c
}

// runOp splits the inputs, runs op on both parties and reconstructs the
// result.
func runOp(t *testing.T, seed uint64, r ring.Ring, x []uint64,
	op func(*Context, []uint64) ([]uint64, error)) []uint64 {
	t.Helper()
	s := NewLocalSession(seed)
	defer s.Close()
	g := prg.NewSeeded(seed + 99)
	x0, x1 := share.SplitVec(g, r, x)
	var o0, o1 []uint64
	err := s.Run(
		func(c *Context) error { var e error; o0, e = op(c, x0); return e },
		func(c *Context) error { var e error; o1, e = op(c, x1); return e })
	if err != nil {
		t.Fatal(err)
	}
	return share.OpenVec(r, o0, o1)
}

// dealtLayer is a k×n linear layer's dealer-side triple supply: a dealt
// fixed weight mask B and the seed of the generator its triples are dealt
// from.
type dealtLayer struct {
	fb   *triple.FixedB
	seed uint64
}

func dealLayer(tb testing.TB, seed uint64, r ring.Ring, k, n int) dealtLayer {
	tb.Helper()
	fb, err := triple.DealFixedB(prg.NewSeeded(seed).Fork(), r, k, n)
	if err != nil {
		tb.Fatal(err)
	}
	return dealtLayer{fb: fb, seed: seed}
}

// dealtFamily is one party's family over a dealt layer: each Next deals a
// fresh pair of views from the family's own generator and keeps the
// party's. Both parties' generators start from the layer's seed, so they
// deal the same pairs in the same order.
type dealtFamily struct {
	fb    *triple.FixedB
	g     *prg.PRG
	party int
}

func (f *dealtFamily) Next(m int) (*triple.Mat, error) { return f.fb.Deal(f.g, m)[f.party], nil }

// prepare opens F for c's weight share against the layer's B and binds
// the prepared layer to c's dealt family.
func (d dealtLayer) prepare(c *Context, ws []uint64) (*Linear, error) {
	prep, err := c.PrepareLinear(d.fb.R, ws, d.fb.BShare(c.P()), d.fb.K, d.fb.N)
	if err != nil {
		return nil, err
	}
	return c.BindLinear(prep, &dealtFamily{fb: d.fb, g: prg.NewSeeded(d.seed), party: c.P()}), nil
}

// matMul returns shares of rec(IN) ⊗ rec(W) for IN (M×K) and W (K×N) over
// a prepared layer: F is opened once, then one E exchange.
func matMul(t *testing.T, s *Session, d dealtLayer, in0, in1, w0, w1 []uint64, m int) (o0, o1 []uint64) {
	t.Helper()
	run := func(in, w []uint64, out *[]uint64) func(*Context) error {
		return func(c *Context) error {
			l, err := d.prepare(c, w)
			if err != nil {
				return err
			}
			*out, err = l.Mul(in, m)
			return err
		}
	}
	if err := s.Run(run(in0, w0, &o0), run(in1, w1, &o1)); err != nil {
		t.Fatal(err)
	}
	return o0, o1
}

func TestMatMulMatchesPlaintext(t *testing.T) {
	r := ring.New(16)
	g := prg.NewSeeded(1)
	m, k, n := 3, 4, 5
	in := g.Elems(m*k, r)
	w := g.Elems(k*n, r)
	want := mulMod(in, w, m, k, n, r)

	s := NewLocalSession(2)
	defer s.Close()
	in0, in1 := share.SplitVec(g, r, in)
	w0, w1 := share.SplitVec(g, r, w)
	o0, o1 := matMul(t, s, dealLayer(t, 2, r, k, n), in0, in1, w0, w1, m)
	got := share.OpenVec(r, o0, o1)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MatMul[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestMatMulPaperExampleFig3(t *testing.T) {
	// Fig. 3 demonstrates 2PC-MMAC on a 4×4 block with signed 8-bit data;
	// we verify the reconstruction property rec(OUT) = rec(IN) ⊗ rec(W)
	// with signed values, including the OUT_i = 59 style intermediate.
	r := ring.New(8)
	g := prg.NewSeeded(3)
	in := r.FromInts([]int64{2, -3, 1, 4}) // 1×4
	w := r.FromInts([]int64{5, -1, 7, -2}) // 4×1
	want := int64(2*5 + 3 + 7 - 8)         // 2·5 + (−3)(−1) + 1·7 + 4·(−2) = 12
	s := NewLocalSession(4)
	defer s.Close()
	in0, in1 := share.SplitVec(g, r, in)
	w0, w1 := share.SplitVec(g, r, w)
	o0, o1 := matMul(t, s, dealLayer(t, 4, r, 4, 1), in0, in1, w0, w1, 1)
	if got := r.ToInt(share.Open(r, o0[0], o1[0])); got != want {
		t.Fatalf("2PC-MMAC = %d, want %d", got, want)
	}
}

func TestPreparedLinearOnlineCommIsEOnly(t *testing.T) {
	r := ring.New(16)
	g := prg.NewSeeded(5)
	m, k, n := 8, 12, 6
	in := g.Elems(m*k, r)
	w := g.Elems(k*n, r)
	want := mulMod(in, w, m, k, n, r)

	s := NewLocalSession(6)
	defer s.Close()
	in0, in1 := share.SplitVec(g, r, in)
	w0, w1 := share.SplitVec(g, r, w)
	d := dealLayer(t, 6, r, k, n)
	var l0, l1 *Linear
	err := s.Run(
		func(c *Context) error { var e error; l0, e = d.prepare(c, w0); return e },
		func(c *Context) error { var e error; l1, e = d.prepare(c, w1); return e })
	if err != nil {
		t.Fatal(err)
	}
	s.ResetStats() // measure online phase only
	var o0, o1 []uint64
	err = s.Run(
		func(c *Context) error { var e error; o0, e = l0.Mul(in0, m); return e },
		func(c *Context) error { var e error; o1, e = l1.Mul(in1, m); return e })
	if err != nil {
		t.Fatal(err)
	}
	got := share.OpenVec(r, o0, o1)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prepared Mul[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	st0, st1 := s.Stats()
	eBytes := uint64(m * k * r.Bytes())
	if st0.BytesSent != eBytes || st1.BytesSent != eBytes {
		t.Errorf("online bytes = %d/%d, want exactly the E exchange %d", st0.BytesSent, st1.BytesSent, eBytes)
	}
	// A second inference consumes a fresh A-mask but still works.
	err = s.Run(
		func(c *Context) error { var e error; o0, e = l0.Mul(in0, m); return e },
		func(c *Context) error { var e error; o1, e = l1.Mul(in1, m); return e })
	if err != nil {
		t.Fatal(err)
	}
	got = share.OpenVec(r, o0, o1)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("second Mul[%d] = %d", i, got[i])
		}
	}
}

func TestBNReQMatchesPlaintextWithinOneLSB(t *testing.T) {
	// A 32-bit carrier keeps the probabilistic truncation-wrap chance
	// negligible (≈|v|/Q per element); the wrap behaviour itself is covered
	// in the share package tests.
	r := ring.New(32)
	g := prg.NewSeeded(7)
	chans, spatial := 3, 16
	vals := make([]int64, chans*spatial)
	for i := range vals {
		vals[i] = g.Int64n(3000)
	}
	x := r.FromInts(vals)
	im := []int64{3, 5, 1}
	bias := []int64{100, -50, 0}
	const ie = 4
	s := NewLocalSession(8)
	defer s.Close()
	x0, x1 := share.SplitVec(g, r, x)
	b0, b1 := share.SplitVec(g, r, r.FromInts(bias))
	err := s.Run(
		func(c *Context) error { return c.BNReQ(r, x0, chans, spatial, b0, im, ie) },
		func(c *Context) error { return c.BNReQ(r, x1, chans, spatial, b1, im, ie) })
	if err != nil {
		t.Fatal(err)
	}
	got := share.OpenVec(r, x0, x1)
	for ch := 0; ch < chans; ch++ {
		for i := 0; i < spatial; i++ {
			idx := ch*spatial + i
			want := ((vals[idx] + bias[ch]) * im[ch]) >> ie
			diff := r.ToInt(got[idx]) - want
			if diff < -1 || diff > 1 {
				t.Fatalf("BNReQ[%d] = %d, want %d±1", idx, r.ToInt(got[idx]), want)
			}
		}
	}
}

func TestBNReQValidation(t *testing.T) {
	s := NewLocalSession(9)
	defer s.Close()
	r := ring.New(8)
	c := s.P0
	if err := c.BNReQ(r, make([]uint64, 4), 2, 3, nil, []int64{1, 1}, 0); err == nil {
		t.Error("bad tensor size accepted")
	}
	if err := c.BNReQ(r, make([]uint64, 6), 2, 3, nil, []int64{1}, 0); err == nil {
		t.Error("bad multiplier count accepted")
	}
	if err := c.BNReQ(r, make([]uint64, 6), 2, 3, make([]uint64, 1), []int64{1, 1}, 0); err == nil {
		t.Error("bad bias count accepted")
	}
}

func TestABReLUExhaustiveSmallRing(t *testing.T) {
	r := ring.New(6)
	var vals []int64
	for v := -int64(r.Half()); v < int64(r.Half()); v++ {
		vals = append(vals, v)
	}
	got := runOp(t, 10, r, r.FromInts(vals), func(c *Context, xs []uint64) ([]uint64, error) {
		return c.ABReLU(r, xs)
	})
	for i, v := range vals {
		want := v
		if v < 0 {
			want = 0
		}
		if r.ToInt(got[i]) != want {
			t.Fatalf("ABReLU(%d) = %d, want %d", v, r.ToInt(got[i]), want)
		}
	}
}

func TestABReLURandom16(t *testing.T) {
	r := ring.New(16)
	g := prg.NewSeeded(11)
	vals := make([]int64, 500)
	for i := range vals {
		vals[i] = g.Int64n(30000)
	}
	got := runOp(t, 12, r, r.FromInts(vals), func(c *Context, xs []uint64) ([]uint64, error) {
		return c.ABReLU(r, xs)
	})
	for i, v := range vals {
		want := v
		if v < 0 {
			want = 0
		}
		if r.ToInt(got[i]) != want {
			t.Fatalf("ABReLU(%d) = %d, want %d", v, r.ToInt(got[i]), want)
		}
	}
}

func TestABReLUPaperExamples(t *testing.T) {
	// (x_i,x_j)=(125,7): x = −124 → ReLU = 0.
	// (x_i,x_j)=(−2,−2): x = −4 → ReLU = 0.
	r := ring.New(8)
	s := NewLocalSession(13)
	defer s.Close()
	x0 := []uint64{r.FromInt(125), r.FromInt(-2)}
	x1 := []uint64{r.FromInt(7), r.FromInt(-2)}
	var o0, o1 []uint64
	err := s.Run(
		func(c *Context) error { var e error; o0, e = c.ABReLU(r, x0); return e },
		func(c *Context) error { var e error; o1, e = c.ABReLU(r, x1); return e })
	if err != nil {
		t.Fatal(err)
	}
	got := share.OpenVec(r, o0, o1)
	if r.ToInt(got[0]) != 0 || r.ToInt(got[1]) != 0 {
		t.Errorf("paper ABReLU examples = %d,%d, want 0,0", r.ToInt(got[0]), r.ToInt(got[1]))
	}
}

func TestDReLUBits(t *testing.T) {
	r := ring.New(10)
	vals := []int64{-512, -1, 0, 1, 511}
	wantBits := []uint64{0, 0, 1, 1, 1}
	g := prg.NewSeeded(14)
	s := NewLocalSession(15)
	defer s.Close()
	x0, x1 := share.SplitVec(g, r, r.FromInts(vals))
	var d0, d1 []uint64
	err := s.Run(
		func(c *Context) error { var e error; d0, e = c.DReLU(r, x0); return e },
		func(c *Context) error { var e error; d1, e = c.DReLU(r, x1); return e })
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if d0[i]^d1[i] != wantBits[i] {
			t.Errorf("DReLU(%d) = %d, want %d", vals[i], d0[i]^d1[i], wantBits[i])
		}
	}
}

func TestMuxSelectsOrZeroes(t *testing.T) {
	r := ring.New(14)
	g := prg.NewSeeded(16)
	n := 64
	vals := make([]int64, n)
	bits := make([]uint64, n)
	for i := range vals {
		vals[i] = g.Int64n(5000)
		bits[i] = g.Bit()
	}
	s := NewLocalSession(17)
	defer s.Close()
	x0, x1 := share.SplitVec(g, r, r.FromInts(vals))
	// Boolean-share the bits.
	d0 := make([]uint64, n)
	d1 := make([]uint64, n)
	for i := range bits {
		d0[i] = g.Bit()
		d1[i] = bits[i] ^ d0[i]
	}
	var o0, o1 []uint64
	err := s.Run(
		func(c *Context) error { var e error; o0, e = c.Mux(r, x0, d0); return e },
		func(c *Context) error { var e error; o1, e = c.Mux(r, x1, d1); return e })
	if err != nil {
		t.Fatal(err)
	}
	got := share.OpenVec(r, o0, o1)
	for i := range vals {
		want := int64(0)
		if bits[i] == 1 {
			want = vals[i]
		}
		if r.ToInt(got[i]) != want {
			t.Fatalf("Mux[%d] = %d, want %d (bit %d)", i, r.ToInt(got[i]), want, bits[i])
		}
	}
}

func TestMaxPoolMatchesPlaintext(t *testing.T) {
	r := ring.New(12)
	g := prg.NewSeeded(18)
	geom := tensor.ConvGeom{InC: 2, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	vals := make([]int64, geom.InC*geom.InH*geom.InW)
	for i := range vals {
		vals[i] = g.Int64n(1000)
	}
	got := runOp(t, 19, r, r.FromInts(vals), func(c *Context, xs []uint64) ([]uint64, error) {
		return c.MaxPool(r, xs, geom)
	})
	tensor.PoolWindows(geom, func(oi int, in []int) {
		want := vals[in[0]]
		for _, ii := range in[1:] {
			if vals[ii] > want {
				want = vals[ii]
			}
		}
		if r.ToInt(got[oi]) != want {
			t.Errorf("MaxPool[%d] = %d, want %d", oi, r.ToInt(got[oi]), want)
		}
	})
}

func TestMaxPoolStride1Overlap(t *testing.T) {
	r := ring.New(12)
	g := prg.NewSeeded(20)
	geom := tensor.ConvGeom{InC: 1, InH: 5, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	vals := make([]int64, 25)
	for i := range vals {
		vals[i] = g.Int64n(800)
	}
	got := runOp(t, 21, r, r.FromInts(vals), func(c *Context, xs []uint64) ([]uint64, error) {
		return c.MaxPool(r, xs, geom)
	})
	tensor.PoolWindows(geom, func(oi int, in []int) {
		want := vals[in[0]]
		for _, ii := range in[1:] {
			if vals[ii] > want {
				want = vals[ii]
			}
		}
		if r.ToInt(got[oi]) != want {
			t.Errorf("padded MaxPool[%d] = %d, want %d", oi, r.ToInt(got[oi]), want)
		}
	})
}

func TestAvgPoolPowerOfTwo(t *testing.T) {
	r := ring.New(16)
	g := prg.NewSeeded(22)
	geom := tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	vals := make([]int64, 16)
	for i := range vals {
		vals[i] = g.Int64n(2000)
	}
	got := runOp(t, 23, r, r.FromInts(vals), func(c *Context, xs []uint64) ([]uint64, error) {
		return c.AvgPool(r, xs, geom)
	})
	tensor.PoolWindows(geom, func(oi int, in []int) {
		var sum int64
		for _, ii := range in {
			sum += vals[ii]
		}
		want := sum >> 2
		diff := r.ToInt(got[oi]) - want
		if diff < -1 || diff > 1 {
			t.Errorf("AvgPool[%d] = %d, want %d±1", oi, r.ToInt(got[oi]), want)
		}
	})
}

func TestAvgPoolGlobal7x7(t *testing.T) {
	// ResNet's global average pool: 49 elements, dyadic reciprocal.
	r := ring.New(20)
	g := prg.NewSeeded(24)
	geom := tensor.ConvGeom{InC: 2, InH: 7, InW: 7, KH: 7, KW: 7, StrideH: 7, StrideW: 7}
	vals := make([]int64, 2*49)
	for i := range vals {
		vals[i] = g.Int64n(4000)
	}
	got := runOp(t, 25, r, r.FromInts(vals), func(c *Context, xs []uint64) ([]uint64, error) {
		return c.AvgPool(r, xs, geom)
	})
	for ch := 0; ch < 2; ch++ {
		var sum int64
		for i := 0; i < 49; i++ {
			sum += vals[ch*49+i]
		}
		want := sum / 49
		diff := r.ToInt(got[ch]) - want
		// The two-stage dyadic reciprocal carries ≈1.6% relative error,
		// plus rounding differences between floor-style truncation and
		// Go's toward-zero division on negative sums.
		tol := want / 40
		if tol < 0 {
			tol = -tol
		}
		tol += 4
		if diff < -tol || diff > tol {
			t.Errorf("global AvgPool[%d] = %d, want %d±%d", ch, r.ToInt(got[ch]), want, tol)
		}
	}
}

func TestB2AExhaustive(t *testing.T) {
	r := ring.New(16)
	s := NewLocalSession(26)
	defer s.Close()
	d0 := []uint64{0, 0, 1, 1}
	d1 := []uint64{0, 1, 0, 1}
	var a0, a1 []uint64
	err := s.Run(
		func(c *Context) error { var e error; a0, e = c.B2A(r, d0); return e },
		func(c *Context) error { var e error; a1, e = c.B2A(r, d1); return e })
	if err != nil {
		t.Fatal(err)
	}
	for i := range d0 {
		want := d0[i] ^ d1[i]
		if got := share.Open(r, a0[i], a1[i]); got != want {
			t.Fatalf("B2A(%d⊕%d) = %d", d0[i], d1[i], got)
		}
	}
}

// TestOTOpsAllocsPerTensor is the allocation gate of the OT-backed share
// ops: a dealer-backed B2A or Mux packs one candidate slab per tensor, so
// it allocates the same number of times, within a small constant, at 64
// and at 4,096 elements. The slack covers what the larger run's extra
// garbage collections cost: the OT hashers' sync.Pool is emptied by a
// collection, and each refill allocates a staging area.
func TestOTOpsAllocsPerTensor(t *testing.T) {
	r := ring.New(16)
	const slack = 16
	for name, op := range map[string]func(c *Context, x, d []uint64) ([]uint64, error){
		"B2A": func(c *Context, _, d []uint64) ([]uint64, error) { return c.B2A(r, d) },
		"Mux": func(c *Context, x, d []uint64) ([]uint64, error) { return c.Mux(r, x, d) },
	} {
		var allocs [2]float64
		for i, n := range []int{64, 4096} {
			g := prg.NewSeeded(90)
			x0, x1 := g.Elems(n, r), g.Elems(n, r)
			d0, d1 := make([]uint64, n), make([]uint64, n)
			for k := range d0 {
				d0[k], d1[k] = g.Bit(), g.Bit()
			}
			allocs[i] = testing.AllocsPerRun(3, func() {
				s := NewLocalSession(91)
				defer s.Close()
				err := s.Run(
					func(c *Context) error { _, e := op(c, x0, d0); return e },
					func(c *Context) error { _, e := op(c, x1, d1); return e })
				if err != nil {
					t.Fatal(err)
				}
			})
		}
		if d := allocs[1] - allocs[0]; d > slack || d < -slack {
			t.Errorf("%s: %v allocs at 64 elements, %v at 4096: it allocates per element", name, allocs[0], allocs[1])
		}
	}
}

func TestZeroExtendExact(t *testing.T) {
	from, to := ring.New(12), ring.New(16)
	g := prg.NewSeeded(27)
	n := 300
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(g.Intn(2047)) // non-negative, < Q₁/2
	}
	s := NewLocalSession(28)
	defer s.Close()
	x0, x1 := share.SplitVec(g, from, from.FromInts(vals))
	var y0, y1 []uint64
	err := s.Run(
		func(c *Context) error { var e error; y0, e = c.ZeroExtend(from, to, x0); return e },
		func(c *Context) error { var e error; y1, e = c.ZeroExtend(from, to, x1); return e })
	if err != nil {
		t.Fatal(err)
	}
	got := share.OpenVec(to, y0, y1)
	for i := range vals {
		if to.ToInt(got[i]) != vals[i] {
			t.Fatalf("ZeroExtend(%d) = %d", vals[i], to.ToInt(got[i]))
		}
	}
}

func TestZeroExtendSameRingAndContraction(t *testing.T) {
	r := ring.New(12)
	s := NewLocalSession(29)
	defer s.Close()
	x := []uint64{1, 2, 3}
	y, err := s.P0.ZeroExtend(r, r, x)
	if err != nil || len(y) != 3 || y[0] != 1 {
		t.Error("same-ring extension should copy")
	}
	if _, err := s.P0.ZeroExtend(ring.New(16), r, x); err == nil {
		t.Error("contraction via ZeroExtend must be rejected")
	}
}

func TestRevealTo(t *testing.T) {
	r := ring.New(16)
	g := prg.NewSeeded(30)
	vals := []int64{42, -7, 1000}
	x0, x1 := share.SplitVec(g, r, r.FromInts(vals))
	s := NewLocalSession(31)
	defer s.Close()
	var got []uint64
	err := s.Run(
		func(c *Context) error { var e error; got, e = c.RevealTo(r, share.PartyI, x0); return e },
		func(c *Context) error { _, e := c.RevealTo(r, share.PartyI, x1); return e })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if r.ToInt(got[i]) != v {
			t.Errorf("RevealTo[%d] = %d, want %d", i, r.ToInt(got[i]), v)
		}
	}
}

func TestConvViaIm2ColAndPreparedLinear(t *testing.T) {
	// End-to-end 2PC-Conv2D: im2col on shares is local; AS-GEMM gives the
	// convolution, cross-checked against the plaintext direct conv.
	r := ring.New(18)
	g := prg.NewSeeded(32)
	geom := tensor.ConvGeom{InC: 2, InH: 5, InW: 5, OutC: 3, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	img := make([]int64, geom.InC*geom.InH*geom.InW)
	for i := range img {
		img[i] = g.Int64n(20)
	}
	wts := make([]int64, geom.OutC*geom.PatchLen())
	for i := range wts {
		wts[i] = g.Int64n(10)
	}
	imgR := r.FromInts(img)
	// Weight as (PatchLen × OutC) for GEMM.
	wt := make([]uint64, len(wts))
	pl := geom.PatchLen()
	for oc := 0; oc < geom.OutC; oc++ {
		for i := 0; i < pl; i++ {
			wt[i*geom.OutC+oc] = r.FromInt(wts[oc*pl+i])
		}
	}
	im2col := func(img []uint64) []uint64 {
		cols := make([]uint64, geom.Patches()*pl)
		tensor.Im2ColIntParInto(nil, cols, img, geom)
		return cols
	}
	want := mulMod(im2col(imgR), wt, geom.Patches(), pl, geom.OutC, r)

	s := NewLocalSession(33)
	defer s.Close()
	x0, x1 := share.SplitVec(g, r, imgR)
	w0, w1 := share.SplitVec(g, r, wt)
	d := dealLayer(t, 33, r, pl, geom.OutC)
	run := func(c *Context, xs, ws []uint64) ([]uint64, error) {
		l, err := d.prepare(c, ws)
		if err != nil {
			return nil, err
		}
		return l.Mul(im2col(xs), geom.Patches())
	}
	var o0, o1 []uint64
	err := s.Run(
		func(c *Context) error { var e error; o0, e = run(c, x0, w0); return e },
		func(c *Context) error { var e error; o1, e = run(c, x1, w1); return e })
	if err != nil {
		t.Fatal(err)
	}
	got := share.OpenVec(r, o0, o1)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("secure conv[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestABReLUCommScalesWithWidth(t *testing.T) {
	measure := func(bits uint) uint64 {
		r := ring.New(bits)
		g := prg.NewSeeded(34)
		vals := make([]int64, 128)
		for i := range vals {
			vals[i] = g.Int64n(100)
		}
		s := NewLocalSession(35)
		defer s.Close()
		x0, x1 := share.SplitVec(g, r, r.FromInts(vals))
		s.Run(
			func(c *Context) error { _, e := c.ABReLU(r, x0); return e },
			func(c *Context) error { _, e := c.ABReLU(r, x1); return e })
		// One endpoint's TotalBytes covers both directions of the pipe.
		st0, _ := s.Stats()
		return st0.TotalBytes()
	}
	c16, c32 := measure(16), measure(32)
	ratio := float64(c32) / float64(c16)
	if ratio < 1.6 || ratio > 2.5 {
		t.Errorf("ABReLU comm 32/16 ratio = %.2f (c16=%d c32=%d)", ratio, c16, c32)
	}
	t.Logf("ABReLU bytes per element: 16-bit %.1f, 32-bit %.1f", float64(c16)/128, float64(c32)/128)
}

func BenchmarkABReLU16(b *testing.B) {
	r := ring.New(16)
	g := prg.NewSeeded(1)
	vals := make([]int64, 256)
	for i := range vals {
		vals[i] = g.Int64n(10000)
	}
	s := NewLocalSession(2)
	defer s.Close()
	x0, x1 := share.SplitVec(g, r, r.FromInts(vals))
	b.SetBytes(int64(len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(
			func(c *Context) error { _, e := c.ABReLU(r, x0); return e },
			func(c *Context) error { _, e := c.ABReLU(r, x1); return e })
	}
}

func BenchmarkPreparedLinear(b *testing.B) {
	r := ring.New(16)
	g := prg.NewSeeded(1)
	m, k, n := 64, 128, 32
	in := g.Elems(m*k, r)
	w := g.Elems(k*n, r)
	s := NewLocalSession(3)
	defer s.Close()
	in0, in1 := share.SplitVec(g, r, in)
	w0, w1 := share.SplitVec(g, r, w)
	d := dealLayer(b, 3, r, k, n)
	var l0, l1 *Linear
	if err := s.Run(
		func(c *Context) error { var e error; l0, e = d.prepare(c, w0); return e },
		func(c *Context) error { var e error; l1, e = d.prepare(c, w1); return e }); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(m * k * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(
			func(c *Context) error { _, e := l0.Mul(in0, m); return e },
			func(c *Context) error { _, e := l1.Mul(in1, m); return e })
	}
}

// TestMaxPoolTreeMatchesSequential checks the tournament-tree MaxPool
// against a sequential left-to-right scan of each window in plaintext, on
// even windows and on padded odd ones whose border windows shrink.
func TestMaxPoolTreeMatchesSequential(t *testing.T) {
	r := ring.New(14)
	g := prg.NewSeeded(80)
	for _, geom := range []tensor.ConvGeom{
		{InC: 2, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 2, StrideW: 2},
		{InC: 1, InH: 5, InW: 5, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, // odd windows
	} {
		vals := make([]int64, geom.InC*geom.InH*geom.InW)
		for i := range vals {
			vals[i] = g.Int64n(900)
		}
		got := runOp(t, 81, r, r.FromInts(vals), func(c *Context, xs []uint64) ([]uint64, error) {
			return c.MaxPool(r, xs, geom)
		})
		tensor.PoolWindows(geom, func(oi int, in []int) {
			want := vals[in[0]]
			for _, ii := range in[1:] {
				if vals[ii] > want {
					want = vals[ii]
				}
			}
			if r.ToInt(got[oi]) != want {
				t.Errorf("geom %v window %d: tree max %d, want %d", geom, oi, r.ToInt(got[oi]), want)
			}
		})
	}
}

// TestMaxPoolRoundsPinned pins the tournament's round count: each of the
// ⌈log₂K⌉ stages of a K-element window is one batched ABReLU whose sign
// tokens ride behind the previous stage's last receive, leaving the Mux's
// two rounds — 4 rounds for 2×2 windows, 8 for 3×3.
func TestMaxPoolRoundsPinned(t *testing.T) {
	r := ring.New(14)
	g := prg.NewSeeded(82)
	for _, tc := range []struct {
		k      int
		rounds uint64
	}{{2, 4}, {3, 8}} {
		geom := tensor.ConvGeom{InC: 1, InH: 6, InW: 6, KH: tc.k, KW: tc.k, StrideH: tc.k, StrideW: tc.k}
		vals := make([]int64, 36)
		for i := range vals {
			vals[i] = g.Int64n(500)
		}
		s := NewLocalSession(83)
		x0, x1 := share.SplitVec(g, r, r.FromInts(vals))
		err := s.Run(
			func(c *Context) error { _, e := c.MaxPool(r, x0, geom); return e },
			func(c *Context) error { _, e := c.MaxPool(r, x1, geom); return e })
		st, _ := s.Stats()
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Rounds != tc.rounds {
			t.Errorf("%d×%d windows: %d rounds, want %d", tc.k, tc.k, st.Rounds, tc.rounds)
		}
	}
}
