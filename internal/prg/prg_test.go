package prg

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math"
	"testing"

	"aq2pnn/internal/ring"
)

// refPRG is the generator as first written, buffering a whole 8 KiB
// block of keystream, kept as the definition the 1 KiB buffer must
// reproduce byte for byte.
type refPRG struct {
	stream cipher.Stream
	buf    [8192]byte
	pos    int
}

func newRef(seed [SeedSize]byte) *refPRG {
	block, err := aes.NewCipher(seed[:16])
	if err != nil {
		panic(err)
	}
	g := &refPRG{stream: cipher.NewCTR(block, seed[16:])}
	g.pos = len(g.buf)
	return g
}

func (g *refPRG) refill() {
	clear(g.buf[:])
	g.stream.XORKeyStream(g.buf[:], g.buf[:])
	g.pos = 0
}

func (g *refPRG) Read(p []byte) {
	for len(p) > 0 {
		if g.pos == len(g.buf) {
			g.refill()
		}
		c := copy(p, g.buf[g.pos:])
		g.pos += c
		p = p[c:]
	}
}

func (g *refPRG) Uint64() uint64 {
	if g.pos+8 > len(g.buf) {
		g.refill()
	}
	v := binary.LittleEndian.Uint64(g.buf[g.pos:])
	g.pos += 8
	return v
}

func (g *refPRG) Intn(n int) int {
	bound := uint64(n)
	limit := (^uint64(0) / bound) * bound
	for {
		if v := g.Uint64(); v < limit {
			return int(v % bound)
		}
	}
}

func (g *refPRG) Fork() *refPRG {
	var s [SeedSize]byte
	g.Read(s[:])
	return newRef(s)
}

// checkStream drives a PRG and a refPRG of one seed through the same
// operations, decoded from ops three bytes at a time (an operation and a
// 16-bit size), and fails at the first output that differs. Fork
// continues both pairs on the children, so the children's streams are
// checked too.
func checkStream(t *testing.T, seed [SeedSize]byte, ops []byte) {
	t.Helper()
	g, ref := New(seed), newRef(seed)
	r := ring.New(13)
	for i := 0; i+3 <= len(ops); i += 3 {
		size := int(binary.LittleEndian.Uint16(ops[i+1:])) % 20001
		switch ops[i] % 5 {
		case 0:
			got, want := make([]byte, size), make([]byte, size)
			g.Read(got)
			ref.Read(want)
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d: Read(%d) differs from the 8 KiB reference", i/3, size)
			}
		case 1:
			for range size % 64 {
				if got, want := g.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("op %d: Uint64 = %#x, reference %#x", i/3, got, want)
				}
			}
		case 2:
			n := size + 1
			if got, want := g.Intn(n), ref.Intn(n); got != want {
				t.Fatalf("op %d: Intn(%d) = %d, reference %d", i/3, n, got, want)
			}
		case 3:
			got := make([]uint64, size%3000)
			g.FillElems(got, r)
			for k := range got {
				if want := ref.Uint64() & r.Mask; got[k] != want {
					t.Fatalf("op %d: FillElems element %d = %#x, reference %#x", i/3, k, got[k], want)
				}
			}
		case 4:
			g, ref = g.Fork(), ref.Fork()
		}
	}
	if got, want := g.Uint64(), ref.Uint64(); got != want {
		t.Fatalf("after %d ops: Uint64 = %#x, reference %#x", len(ops)/3, got, want)
	}
}

// TestStreamMatches8KiBReference runs random mixes of every operation,
// crossing many 1 KiB buffer and 8 KiB block boundaries at every
// alignment, against the reference generator.
func TestStreamMatches8KiBReference(t *testing.T) {
	g := NewSeeded(9)
	for trial := range 200 {
		var seed [SeedSize]byte
		g.Read(seed[:])
		ops := make([]byte, 3*(1+g.Intn(60)))
		g.Read(ops)
		// Small sizes keep most reads inside one buffer, so that words
		// meet buffer and block ends at odd offsets.
		if trial%2 == 0 {
			for i := 2; i < len(ops); i += 3 {
				ops[i] = 0
			}
		}
		checkStream(t, seed, ops)
	}
}

// FuzzPRGStream checks arbitrary operation mixes against the 8 KiB
// reference generator.
func FuzzPRGStream(f *testing.F) {
	f.Add(make([]byte, SeedSize), []byte{0, 0xFF, 0x03, 1, 63, 0, 0, 5, 0, 1, 63, 0})
	f.Add([]byte("a seed of thirty-two bytes long!"), []byte{0, 0x1F, 0x4E, 3, 0xB7, 0x0B, 4, 0, 0, 2, 0xFF, 0xFF, 1, 0x3F, 0})
	f.Fuzz(func(t *testing.T, seed, ops []byte) {
		if len(seed) < SeedSize || len(ops) > 3*64 {
			return
		}
		checkStream(t, [SeedSize]byte(seed), ops)
	})
}

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
