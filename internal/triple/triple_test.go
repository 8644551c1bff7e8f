package triple

import (
	"sync"
	"testing"

	"aq2pnn/internal/ot"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/tensor"
	"aq2pnn/internal/transport"
)

// mulMod is the serial ring GEMM A(m×k) × B(k×n) into a fresh matrix.
func mulMod(a, b []uint64, m, k, n int, r ring.Ring) []uint64 {
	c := make([]uint64, m*n)
	tensor.MatMulModParInto(nil, c, a, b, m, k, n, r.Mask)
	return c
}

func checkTriple(t *testing.T, r ring.Ring, p0, p1 *Mat) {
	t.Helper()
	if p0.M != p1.M || p0.K != p1.K || p0.N != p1.N {
		t.Fatal("shape mismatch between party views")
	}
	m, k, n := p0.M, p0.K, p0.N
	a := make([]uint64, m*k)
	b := make([]uint64, k*n)
	z := make([]uint64, m*n)
	r.AddVec(a, p0.A, p1.A)
	r.AddVec(b, p0.B, p1.B)
	r.AddVec(z, p0.Z, p1.Z)
	want := mulMod(a, b, m, k, n, r)
	for i := range z {
		if z[i] != want[i] {
			t.Fatalf("Z[%d] = %d, want %d (rec(A)⊗rec(B))", i, z[i], want[i])
		}
	}
}

// dealPair deals one m-row triple against a freshly dealt k×n FixedB and
// returns both parties' views of it.
func dealPair(t *testing.T, g *prg.PRG, r ring.Ring, m, k, n int) (p0, p1 *Mat) {
	t.Helper()
	fb, err := DealFixedB(g, r, k, n)
	if err != nil {
		t.Fatal(err)
	}
	v := fb.Deal(g, m)
	return v[0], v[1]
}

// dealer deals a fixed weight mask for a k×n layer and returns it with the
// generator its triples are dealt from.
func dealer(t *testing.T, seed uint64, r ring.Ring, k, n int) (*FixedB, *prg.PRG) {
	t.Helper()
	g := prg.NewSeeded(seed)
	fb, err := DealFixedB(g.Fork(), r, k, n)
	if err != nil {
		t.Fatal(err)
	}
	return fb, g.Fork()
}

// dealt deals one m-row triple from g and returns the parties' families
// over their views of it, as a batch binds them.
func dealt(fb *FixedB, g *prg.PRG, m int) (f0, f1 Family) {
	v := fb.Deal(g, m)
	return NewMatFamily(v[0]), NewMatFamily(v[1])
}

// TestDealMatCorrectness: a dealt triple reconstructs to
// Z = rec(A)⊗rec(B) at every carrier width.
func TestDealMatCorrectness(t *testing.T) {
	g := prg.NewSeeded(1)
	for _, bits := range []uint{8, 16, 32} {
		r := ring.New(bits)
		p0, p1 := dealPair(t, g, r, 3, 5, 4)
		checkTriple(t, r, p0, p1)
	}
}

func TestDealMatSharesLookRandom(t *testing.T) {
	g := prg.NewSeeded(2)
	r := ring.New(16)
	p0, _ := dealPair(t, g, r, 8, 8, 8)
	distinct := map[uint64]bool{}
	for _, v := range p0.A {
		distinct[v] = true
	}
	if len(distinct) < 50 {
		t.Errorf("only %d distinct share values in 64 draws", len(distinct))
	}
}

// TestDealerSourceViewsMatch: the two parties' views of one dealer stay in
// correspondence over a sequence of mixed row counts.
func TestDealerSourceViewsMatch(t *testing.T) {
	r := ring.New(20)
	fb, g := dealer(t, 3, r, 3, 4)
	for _, m := range []int{2, 1, 4, 1, 2} {
		f0, f1 := dealt(fb, g, m)
		checkFamilyTriple(t, r, m, f0, f1, fb.BShare(0), fb.BShare(1))
	}
}

func TestDealerSourceRejectsBadDims(t *testing.T) {
	r := ring.New(8)
	for _, d := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		if _, err := DealFixedB(prg.NewSeeded(4), r, d[0], d[1]); err == nil {
			t.Errorf("dims %dx%d accepted", d[0], d[1])
		}
	}
	fb, g := dealer(t, 4, r, 1, 1)
	f0, _ := dealt(fb, g, 1)
	if _, err := f0.Next(0); err == nil {
		t.Error("zero rows accepted")
	}
}

func TestGilboaTriple(t *testing.T) {
	r := ring.New(12)
	dealer := ot.NewDealer(prg.NewSeeded(5))
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	e0 := ot.NewEndpoint(0, a, prg.NewSeeded(6))
	e0.Dealer = dealer
	e1 := ot.NewEndpoint(1, b, prg.NewSeeded(7))
	e1.Dealer = dealer
	var t0, t1 *Mat
	var err0, err1 error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); t0, err0 = GenMatGilboa(e0, prg.NewSeeded(8), r, 0, 2, 3, 2) }()
	go func() { defer wg.Done(); t1, err1 = GenMatGilboa(e1, prg.NewSeeded(9), r, 1, 2, 3, 2) }()
	wg.Wait()
	if err0 != nil || err1 != nil {
		t.Fatal(err0, err1)
	}
	checkTriple(t, r, t0, t1)
}

func BenchmarkDealFixedB(b *testing.B) {
	r := ring.New(16)
	fb, err := DealFixedB(prg.NewSeeded(1), r, 64, 16)
	if err != nil {
		b.Fatal(err)
	}
	g := prg.NewSeeded(2)
	for i := 0; i < b.N; i++ {
		fb.Deal(g, 16)
	}
}
