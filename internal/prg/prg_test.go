package prg

import (
	"bytes"
	"math"
	"testing"

	"aq2pnn/internal/ring"
)

func TestDeterminism(t *testing.T) {
	a, b := NewSeeded(42), NewSeeded(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewSeeded(43)
	same := 0
	for i := 0; i < 100; i++ {
		if NewSeeded(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Error("different seeds look correlated")
	}
}

func TestReadAcrossRefill(t *testing.T) {
	g := NewSeeded(7)
	big := make([]byte, 3*8192+17)
	n, err := g.Read(big)
	if n != len(big) || err != nil {
		t.Fatalf("Read = %d, %v", n, err)
	}
	// The same stream read in two chunks must agree.
	h := NewSeeded(7)
	p1 := make([]byte, 5000)
	p2 := make([]byte, len(big)-5000)
	h.Read(p1)
	h.Read(p2)
	for i := range p1 {
		if p1[i] != big[i] {
			t.Fatal("chunked read mismatch (head)")
		}
	}
	for i := range p2 {
		if p2[i] != big[5000+i] {
			t.Fatal("chunked read mismatch (tail)")
		}
	}
}

func TestKeystreamMatchesNew(t *testing.T) {
	g := NewSeeded(8)
	for _, l := range []int{0, 1, 15, 16, 17, 240, shortStream, shortStream + 1, 8192, 8193, 3*8192 + 5} {
		var seed [SeedSize]byte
		g.Read(seed[:])
		if l == 17 {
			// The counter carries across bytes: IV+1 wraps its low limb.
			for i := 16; i < SeedSize; i++ {
				seed[i] = 0xFF
			}
		}
		want := make([]byte, l)
		New(seed).Read(want)
		got := make([]byte, l)
		for i := range got {
			got[i] = 0xA5 // Keystream overwrites, it does not XOR
		}
		Keystream(got, seed)
		if !bytes.Equal(got, want) {
			t.Errorf("Keystream(%d bytes) differs from New(seed).Read", l)
		}
	}
}

func TestElemInRange(t *testing.T) {
	g := NewSeeded(1)
	r := ring.New(12)
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		e := g.Elem(r)
		if e > r.Mask {
			t.Fatalf("element %d outside ring", e)
		}
		seen[e] = true
	}
	if len(seen) < 3500 {
		t.Errorf("only %d distinct 12-bit values in 10k draws", len(seen))
	}
}

func TestIntnUnbiasedish(t *testing.T) {
	g := NewSeeded(2)
	counts := make([]int, 7)
	n := 70000
	for i := 0; i < n; i++ {
		counts[g.Intn(7)]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn(7): value %d drawn %d times of %d", v, c, n)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewSeeded(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	g := NewSeeded(3)
	n := 50000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := g.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Errorf("normal mean = %f", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %f", variance)
	}
}

func TestPerm(t *testing.T) {
	g := NewSeeded(4)
	p := g.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatal("not a permutation")
		}
		seen[v] = true
	}
}

func TestForkIndependence(t *testing.T) {
	g := NewSeeded(5)
	c1 := g.Fork()
	c2 := g.Fork()
	if c1.Uint64() == c2.Uint64() && c1.Uint64() == c2.Uint64() {
		t.Error("forked children emit identical streams")
	}
}

func TestInt64n(t *testing.T) {
	g := NewSeeded(6)
	for i := 0; i < 1000; i++ {
		v := g.Int64n(10)
		if v < -10 || v > 10 {
			t.Fatalf("Int64n(10) = %d", v)
		}
	}
	if g.Int64n(0) != 0 {
		t.Error("Int64n(0) should be 0")
	}
}

func BenchmarkUint64(b *testing.B) {
	g := NewSeeded(1)
	for i := 0; i < b.N; i++ {
		_ = g.Uint64()
	}
}

func BenchmarkFillElems(b *testing.B) {
	g := NewSeeded(1)
	r := ring.New(16)
	dst := make([]uint64, 4096)
	b.SetBytes(int64(len(dst) * 8))
	for i := 0; i < b.N; i++ {
		g.FillElems(dst, r)
	}
}
