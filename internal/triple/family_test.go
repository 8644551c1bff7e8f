package triple

import (
	"sync"
	"testing"

	"aq2pnn/internal/ot"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/transport"
)

// checkFamilyTriple draws one m-row triple from both parties' families in
// lockstep and checks it against the fixed mask whose shares are b0, b1.
func checkFamilyTriple(t *testing.T, r ring.Ring, m int, f0, f1 Family, b0, b1 []uint64) {
	t.Helper()
	var t0, t1 *Mat
	var e0, e1 error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); t0, e0 = f0.Next(m) }()
	go func() { defer wg.Done(); t1, e1 = f1.Next(m) }()
	wg.Wait()
	if e0 != nil || e1 != nil {
		t.Fatal(e0, e1)
	}
	checkTriple(t, r, t0, t1)
	// B must be the family's fixed mask.
	for i := range t0.B {
		if t0.B[i] != b0[i] || t1.B[i] != b1[i] {
			t.Fatal("triple B diverges from the family mask")
		}
	}
}

func TestDealerFamilyFixedBFreshA(t *testing.T) {
	r := ring.New(16)
	fb, g := dealer(t, 20, r, 3, 4)
	// Two triples against the same B with fresh A, then another row count.
	for _, m := range []int{2, 2, 5} {
		f0, f1 := dealt(fb, g, m)
		checkFamilyTriple(t, r, m, f0, f1, fb.BShare(0), fb.BShare(1))
	}

	// Consecutive A masks must differ (fresh randomness per inference).
	v1, v2 := fb.Deal(g, 2), fb.Deal(g, 2)
	r.AddVec(v1[0].A, v1[0].A, v1[1].A)
	r.AddVec(v2[0].A, v2[0].A, v2[1].A)
	same := true
	for i := range v1[0].A {
		if v1[0].A[i] != v2[0].A[i] {
			same = false
		}
	}
	if same {
		t.Error("family reused the input mask A across inferences")
	}
}

func TestDealerFamilyDistinctLayers(t *testing.T) {
	r := ring.New(12)
	g := prg.NewSeeded(21)
	fa, err := DealFixedB(g, r, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := DealFixedB(g, r, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range fa.BShare(0) {
		if fa.BShare(0)[i] != fb.BShare(0)[i] {
			same = false
		}
	}
	if same {
		t.Error("different layers share a weight mask")
	}
}

func TestGilboaFamily(t *testing.T) {
	r := ring.New(10)
	dealer := ot.NewDealer(prg.NewSeeded(22))
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	e0 := ot.NewEndpoint(0, a, prg.NewSeeded(23))
	e0.Dealer = dealer
	e1 := ot.NewEndpoint(1, b, prg.NewSeeded(24))
	e1.Dealer = dealer
	g0, g1 := prg.NewSeeded(25), prg.NewSeeded(26)
	b0, b1 := g0.Elems(6, r), g1.Elems(6, r)
	f0 := NewGilboaFamily(e0, g0, 0, r, 3, 2, b0)
	f1 := NewGilboaFamily(e1, g1, 1, r, 3, 2, b1)
	checkFamilyTriple(t, r, 2, f0, f1, b0, b1)
	checkFamilyTriple(t, r, 2, f0, f1, b0, b1)
	if _, err := f0.Next(0); err == nil {
		t.Error("zero rows accepted")
	}
}

func TestFamilyTripleUsableForBeaver(t *testing.T) {
	// The family triple must actually support a Beaver multiplication:
	// OUT = −p·E⊗F + IN_p⊗F + E⊗W_p + Z_p reconstructs to IN⊗W when the
	// weight equals rec(B)+F.
	r := ring.New(16)
	g := prg.NewSeeded(28)
	k, n, m := 3, 2, 2
	fb, dg := dealer(t, 27, r, k, n)
	v := fb.Deal(dg, m)
	t0, t1 := v[0], v[1]

	in := g.Elems(m*k, r)
	w := g.Elems(k*n, r)
	in0 := g.Elems(m*k, r)
	in1 := make([]uint64, m*k)
	r.SubVec(in1, in, in0)
	w0 := g.Elems(k*n, r)
	w1 := make([]uint64, k*n)
	r.SubVec(w1, w, w0)

	e := make([]uint64, m*k)
	r.SubVec(e, in0, t0.A)
	tmp := make([]uint64, m*k)
	r.SubVec(tmp, in1, t1.A)
	r.AddVec(e, e, tmp)
	f := make([]uint64, k*n)
	r.SubVec(f, w0, t0.B)
	tmpF := make([]uint64, k*n)
	r.SubVec(tmpF, w1, t1.B)
	r.AddVec(f, f, tmpF)

	outP := func(p int, inS, wS []uint64, tr *Mat) []uint64 {
		out := mulMod(e, wS, m, k, n, r)
		if p == 1 {
			ef := mulMod(e, f, m, k, n, r)
			r.SubVec(out, out, ef)
		}
		inf := mulMod(inS, f, m, k, n, r)
		r.AddVec(out, out, inf)
		r.AddVec(out, out, tr.Z)
		return out
	}
	o0 := outP(0, in0, w0, t0)
	o1 := outP(1, in1, w1, t1)
	got := make([]uint64, m*n)
	r.AddVec(got, o0, o1)
	want := mulMod(in, w, m, k, n, r)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Beaver output [%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestMatFamilySingleUse: the bank-backed warm path's adapter hands out
// its precomputed triple exactly once and validates the requested shape.
func TestMatFamilySingleUse(t *testing.T) {
	g := prg.NewSeeded(10)
	r := ring.New(16)
	p0, _ := dealPair(t, g, r, 4, 2, 3)
	f := NewMatFamily(p0)
	if _, err := f.Next(5); err == nil {
		t.Error("Next with a mismatched row count succeeded")
	}
	got, err := f.Next(4)
	if err != nil || got != p0 {
		t.Fatalf("Next = (%v, %v), want the precomputed triple", got, err)
	}
	if _, err := f.Next(4); err == nil {
		t.Error("second Next on a single-use family succeeded")
	}
}
