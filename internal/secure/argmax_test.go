package secure

import (
	"testing"

	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/share"
)

func runArgMax(t *testing.T, seed uint64, vals []int64) int64 {
	t.Helper()
	r := ring.New(16)
	g := prg.NewSeeded(seed)
	x0, x1 := share.SplitVec(g, r, r.FromInts(vals))
	s := NewLocalSession(seed + 1)
	defer s.Close()
	var i0, i1 uint64
	err := s.Run(
		func(c *Context) error { var e error; i0, e = c.ArgMax(r, x0); return e },
		func(c *Context) error { var e error; i1, e = c.ArgMax(r, x1); return e })
	if err != nil {
		t.Fatal(err)
	}
	return r.ToInt(share.Open(r, i0, i1))
}

// plainArgMax mirrors the protocol's tie-breaking: on equality the later
// index wins (DReLU(0) = 1).
func plainArgMax(vals []int64) int64 {
	best := 0
	for i, v := range vals {
		if v >= vals[best] {
			best = i
		}
	}
	return int64(best)
}

func TestArgMaxVariants(t *testing.T) {
	cases := [][]int64{
		{5},
		{3, 9},
		{9, 3},
		{-5, -2, -9, -1},
		{100, 100, 99},           // ties keep the later index (DReLU(0)=1)
		{0, -1, 7, 7, 2, -30, 6}, // odd length for the tournament carry-over
		{-8000, 8000, -1, 0},
	}
	for ci, vals := range cases {
		want := plainArgMax(vals)
		if got := runArgMax(t, uint64(200+ci), vals); got != want {
			t.Errorf("case %d: argmax %d, want %d (%v)", ci, got, want, vals)
		}
	}
}

func TestArgMaxRandom(t *testing.T) {
	g := prg.NewSeeded(7)
	for trial := 0; trial < 10; trial++ {
		n := 2 + g.Intn(12)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = g.Int64n(10000)
		}
		want := plainArgMax(vals)
		if got := runArgMax(t, uint64(300+trial), vals); got != want {
			t.Fatalf("trial %d: argmax %d, want %d (%v)", trial, got, want, vals)
		}
	}
}

func TestArgMaxEmpty(t *testing.T) {
	s := NewLocalSession(40)
	defer s.Close()
	if _, err := s.P0.ArgMax(ring.New(8), nil); err == nil {
		t.Error("empty vector accepted")
	}
}

func TestArgMaxDoesNotRevealLogits(t *testing.T) {
	// The protocol transcript must not contain the logits in the clear:
	// run twice with identical argmax but different logit values and make
	// sure both succeed with the same output — then check the only opened
	// value is the index share exchange performed by the caller (here:
	// nothing is opened at all inside ArgMax; output stays shared).
	a := []int64{10, 50, 20}
	b := []int64{11, 49, 7}
	ia := runArgMax(t, 42, a)
	ib := runArgMax(t, 43, b)
	if ia != 1 || ib != 1 {
		t.Errorf("argmax = %d, %d, want 1, 1", ia, ib)
	}
}
