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

func TestDealMatCorrectness(t *testing.T) {
	g := prg.NewSeeded(1)
	for _, bits := range []uint{8, 16, 32} {
		r := ring.New(bits)
		p0, p1 := DealMat(g, r, 3, 5, 4)
		checkTriple(t, r, p0, p1)
	}
}

func TestDealMatSharesLookRandom(t *testing.T) {
	g := prg.NewSeeded(2)
	r := ring.New(16)
	p0, _ := DealMat(g, r, 8, 8, 8)
	distinct := map[uint64]bool{}
	for _, v := range p0.A {
		distinct[v] = true
	}
	if len(distinct) < 50 {
		t.Errorf("only %d distinct share values in 64 draws", len(distinct))
	}
}

func TestDealerSourceViewsMatch(t *testing.T) {
	d := NewDealer(prg.NewSeeded(3))
	s0, s1 := d.SourceFor(0), d.SourceFor(1)
	r := ring.New(20)
	var t0, t1 *Mat
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); t0, _ = s0.MatTriple(r, 2, 3, 4) }()
	go func() { defer wg.Done(); t1, _ = s1.MatTriple(r, 2, 3, 4) }()
	wg.Wait()
	checkTriple(t, r, t0, t1)

	// Sequences of mixed shapes stay in correspondence.
	shapes := [][3]int{{1, 1, 1}, {4, 2, 3}, {1, 1, 1}, {2, 2, 2}}
	for _, sh := range shapes {
		var a, b *Mat
		wg.Add(2)
		go func() { defer wg.Done(); a, _ = s0.MatTriple(r, sh[0], sh[1], sh[2]) }()
		go func() { defer wg.Done(); b, _ = s1.MatTriple(r, sh[0], sh[1], sh[2]) }()
		wg.Wait()
		checkTriple(t, r, a, b)
	}
}

func TestDealerSourceRejectsBadDims(t *testing.T) {
	d := NewDealer(prg.NewSeeded(4))
	if _, err := d.SourceFor(0).MatTriple(ring.New(8), 0, 1, 1); err == nil {
		t.Error("zero dim accepted")
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

func TestGilboaOTSource(t *testing.T) {
	r := ring.New(8)
	dealer := ot.NewDealer(prg.NewSeeded(10))
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	e0 := ot.NewEndpoint(0, a, prg.NewSeeded(11))
	e0.Dealer = dealer
	e1 := ot.NewEndpoint(1, b, prg.NewSeeded(12))
	e1.Dealer = dealer
	s0 := &OTSource{EP: e0, Rng: prg.NewSeeded(13), Party: 0}
	s1 := &OTSource{EP: e1, Rng: prg.NewSeeded(14), Party: 1}
	var t0, t1 *Mat
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); t0, _ = s0.MatTriple(r, 1, 4, 1) }()
	go func() { defer wg.Done(); t1, _ = s1.MatTriple(r, 1, 4, 1) }()
	wg.Wait()
	checkTriple(t, r, t0, t1)
}

func BenchmarkDealMat(b *testing.B) {
	g := prg.NewSeeded(1)
	r := ring.New(16)
	for i := 0; i < b.N; i++ {
		DealMat(g, r, 16, 64, 16)
	}
}
