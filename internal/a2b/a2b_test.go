package a2b

import (
	"testing"
	"testing/quick"

	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
)

func TestGroupsLayout(t *testing.T) {
	cases := []struct {
		bits uint
		want []uint
	}{
		{1, []uint{1}},
		{2, []uint{1, 1}},
		{3, []uint{1, 1, 1}},
		{8, []uint{1, 1, 2, 2, 2}},
		{9, []uint{1, 1, 2, 2, 2, 1}},
		{12, []uint{1, 1, 2, 2, 2, 2, 2}},
		{16, []uint{1, 1, 2, 2, 2, 2, 2, 2, 2}},
	}
	for _, c := range cases {
		got := Groups(c.bits)
		if len(got) != len(c.want) {
			t.Errorf("Groups(%d) = %v", c.bits, got)
			continue
		}
		var sum uint
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Groups(%d) = %v, want %v", c.bits, got, c.want)
			}
			sum += got[i]
		}
		if sum != c.bits {
			t.Errorf("Groups(%d) covers %d bits", c.bits, sum)
		}
	}
	// Paper: U = ⌊ℓ/2⌋+1 for even ℓ. INT8 → 5 groups.
	if U(8) != 5 || U(16) != 9 {
		t.Errorf("U(8)=%d U(16)=%d", U(8), U(16))
	}
}

func TestSplitPaperExample(t *testing.T) {
	// Fig. 6: INT8(−74) = 1011_0110 splits into 1 ‖ 0 ‖ 11 ‖ 01 ‖ 10.
	r := ring.New(8)
	got := Split(r, r.FromInt(-74))
	want := []uint64{1, 0, 3, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Split(-74) = %v, want %v", got, want)
		}
	}
}

func TestSplitJoinRoundTripQuick(t *testing.T) {
	for _, bits := range []uint{3, 8, 9, 12, 16, 24} {
		r := ring.New(bits)
		f := func(raw uint64) bool {
			x := r.Reduce(raw)
			back, err := Join(r, Split(r, x))
			return err == nil && back == x
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("ℓ=%d: %v", bits, err)
		}
	}
}

func TestJoinRejectsBadInput(t *testing.T) {
	r := ring.New(8)
	if _, err := Join(r, []uint64{1, 1}); err == nil {
		t.Error("wrong group count accepted")
	}
	if _, err := Join(r, []uint64{2, 0, 0, 0, 0}); err == nil {
		t.Error("oversized group value accepted")
	}
}

func TestSplitLow(t *testing.T) {
	r := ring.New(8)
	// −74 = 1011_0110; low 7 bits = 011_0110 → groups [0, 11, 01, 10].
	got := SplitLow(r, r.FromInt(-74))
	want := []uint64{0, 3, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("SplitLow = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SplitLow(-74) = %v, want %v", got, want)
		}
	}
	if len(LowGroups(8)) != 4 || LowGroups(1) != nil {
		t.Error("LowGroups widths wrong")
	}
	if SplitLow(ring.New(1), 1) != nil {
		t.Error("1-bit ring has no low bits")
	}
}

func TestSplitIsMSBFirst(t *testing.T) {
	r := ring.New(16)
	x := uint64(0x8001)
	g := Split(r, x)
	if g[0] != 1 {
		t.Error("first group must be the MSB")
	}
	if g[len(g)-1] != 1 {
		t.Error("last group must contain the LSB")
	}
	for i := 1; i < len(g)-1; i++ {
		if g[i] != 0 {
			t.Errorf("middle group %d nonzero", i)
		}
	}
}

// TestSplitIntoMatchesLayout: the arithmetic split agrees with a split
// driven by the Groups widths at every ring width, and MaxU bounds U.
func TestSplitIntoMatchesLayout(t *testing.T) {
	g := prg.NewSeeded(9)
	if MaxU != U(ring.MaxBits) {
		t.Fatalf("MaxU = %d, want U(%d) = %d", MaxU, ring.MaxBits, U(ring.MaxBits))
	}
	for bits := uint(1); bits <= ring.MaxBits; bits++ {
		r := ring.New(bits)
		gs := Groups(bits)
		if U(bits) != len(gs) {
			t.Fatalf("U(%d) = %d, want %d", bits, U(bits), len(gs))
		}
		for i := 0; i < 50; i++ {
			x := g.Elem(r)
			want := make([]uint64, len(gs))
			shift := bits
			for u, w := range gs {
				shift -= w
				want[u] = (x >> shift) & (1<<w - 1)
			}
			var got, low [MaxU]uint64
			SplitInto(got[:], r, x)
			SplitLowInto(low[:], r, x)
			for u := range want {
				if got[u] != want[u] || (u > 0 && low[u-1] != want[u]) {
					t.Fatalf("ℓ=%d x=%#x: SplitInto %v, SplitLowInto %v, want %v", bits, x, got[:len(gs)], low[:len(gs)-1], want)
				}
			}
		}
	}
}

func BenchmarkSplit16(b *testing.B) {
	r := ring.New(16)
	for i := 0; i < b.N; i++ {
		Split(r, uint64(i))
	}
}
