package scm

import (
	"testing"

	"aq2pnn/internal/ot"
	"aq2pnn/internal/parallel"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
)

func runCmp(t *testing.T, r ring.Ring, a, b []uint64, rel Rel, seed uint64) []uint64 {
	t.Helper()
	return runPools(t, seed,
		func(e *ot.Endpoint, rng *prg.PRG, p *parallel.Pool) ([]uint64, error) {
			return CmpSenderPar(e, rng, r, a, rel, p)
		},
		func(e *ot.Endpoint, p *parallel.Pool) ([]uint64, error) { return CmpReceiverPar(e, r, b, rel, p) })
}

func TestCmpExhaustiveSmall(t *testing.T) {
	r := ring.New(5)
	var a, b []uint64
	for x := uint64(0); x <= r.Mask; x++ {
		for y := uint64(0); y <= r.Mask; y++ {
			a = append(a, x)
			b = append(b, y)
		}
	}
	lt := runCmp(t, r, a, b, BLtA, 700)
	gt := runCmp(t, r, a, b, BGtA, 800)
	for k := range a {
		wantLt := uint64(0)
		if b[k] < a[k] {
			wantLt = 1
		}
		wantGt := uint64(0)
		if b[k] > a[k] {
			wantGt = 1
		}
		if lt[k] != wantLt {
			t.Fatalf("[b<a] for (a=%d,b=%d) = %d", a[k], b[k], lt[k])
		}
		if gt[k] != wantGt {
			t.Fatalf("[b>a] for (a=%d,b=%d) = %d", a[k], b[k], gt[k])
		}
	}
}

func TestCmpEqualityIsStrict(t *testing.T) {
	r := ring.New(16)
	a := []uint64{0, 1234, r.Mask}
	got := runCmp(t, r, a, a, BLtA, 900)
	for k, v := range got {
		if v != 0 {
			t.Errorf("[x<x] = %d for element %d", v, k)
		}
	}
	got = runCmp(t, r, a, a, BGtA, 1000)
	for k, v := range got {
		if v != 0 {
			t.Errorf("[x>x] = %d for element %d", v, k)
		}
	}
}

func TestCmpRandomWide(t *testing.T) {
	r := ring.New(24)
	g := prg.NewSeeded(42)
	n := 200
	a := g.Elems(n, r)
	b := g.Elems(n, r)
	got := runCmp(t, r, a, b, BGtA, 1100)
	for k := range a {
		want := uint64(0)
		if b[k] > a[k] {
			want = 1
		}
		if got[k] != want {
			t.Fatalf("element %d: [b>a]=%d want %d (a=%d b=%d)", k, got[k], want, a[k], b[k])
		}
	}
}

func TestPredTokensFinalGroupNeverEQ(t *testing.T) {
	r := ring.New(8)
	widths := []uint{1, 1, 2, 2, 2}
	rows := PredTokens([]uint64{1, 0, 3, 2, 1}, widths, 0, BLtA)
	last := rows[len(rows)-1]
	for pm, tok := range last {
		if tok == TokenEQ {
			t.Errorf("final group emits EQ at pm=%d", pm)
		}
	}
	_ = r
}
