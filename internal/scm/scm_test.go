package scm

import (
	"slices"
	"sync"
	"testing"

	"aq2pnn/internal/a2b"
	"aq2pnn/internal/ot"
	"aq2pnn/internal/parallel"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/transport"
)

// newEndpoints wires two dealer-backed OT endpoints over a pipe.
func newEndpoints(seed uint64) (*ot.Endpoint, *ot.Endpoint, func()) {
	dealer := ot.NewDealer(prg.NewSeeded(seed))
	a, b := transport.Pipe()
	e0 := ot.NewEndpoint(0, a, prg.NewSeeded(seed+1))
	e0.Dealer = dealer
	e1 := ot.NewEndpoint(1, b, prg.NewSeeded(seed+2))
	e1.Dealer = dealer
	return e0, e1, func() { a.Close(); b.Close() }
}

// runMSB executes the full secure sign protocol for the given shares and
// returns the XOR-combined result bits.
func runMSB(t *testing.T, r ring.Ring, xi, xj []uint64, seed uint64) []uint64 {
	t.Helper()
	return runPools(t, seed,
		func(e *ot.Endpoint, rng *prg.PRG, p *parallel.Pool) ([]uint64, error) {
			return MSBSenderPar(e, rng, r, xi, p)
		},
		func(e *ot.Endpoint, p *parallel.Pool) ([]uint64, error) { return MSBReceiverPar(e, r, xj, p) })
}

// runPools runs one comparison protocol over fresh dealer-backed endpoints
// at a nil pool and at a 4-worker pool. The two runs must deliver identical
// output shares and identical traffic; runPools returns the XOR-combined
// result bits.
func runPools(t *testing.T, seed uint64,
	send func(*ot.Endpoint, *prg.PRG, *parallel.Pool) ([]uint64, error),
	recv func(*ot.Endpoint, *parallel.Pool) ([]uint64, error)) []uint64 {
	t.Helper()
	var serial [2][]uint64
	var serialStats [2]transport.Stats
	for _, p := range []*parallel.Pool{nil, parallel.New(4)} {
		e0, e1, closeFn := newEndpoints(seed)
		var m0, m1 []uint64
		var err0, err1 error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); m0, err0 = send(e0, prg.NewSeeded(seed+3), p) }()
		go func() { defer wg.Done(); m1, err1 = recv(e1, p) }()
		wg.Wait()
		stats := [2]transport.Stats{e0.Conn.Stats(), e1.Conn.Stats()}
		closeFn()
		if err0 != nil || err1 != nil {
			t.Fatal(err0, err1)
		}
		if p == nil {
			serial, serialStats = [2][]uint64{m0, m1}, stats
			continue
		}
		if !slices.Equal(m0, serial[0]) || !slices.Equal(m1, serial[1]) {
			t.Fatalf("%d workers: output shares differ from the serial run", p.Workers())
		}
		if stats != serialStats {
			t.Fatalf("%d workers: traffic %+v, serial run %+v", p.Workers(), stats, serialStats)
		}
	}
	out := make([]uint64, len(serial[0]))
	for k := range out {
		out[k] = serial[0][k] ^ serial[1][k]
	}
	return out
}

func TestSenderTokensMatrixShape(t *testing.T) {
	// INT8: low groups are [1, 2, 2, 2] → one (1,2)-OT and three (1,4)-OTs,
	// matching Fig. 5 minus the sign group handled by quadrant detection.
	r := ring.New(8)
	widths := a2b.LowGroups(r.Bits)
	ga := a2b.SplitLow(r, r.FromInt(-74))
	rows := SenderTokens(ga, widths, 0)
	if len(rows) != 4 || len(rows[0]) != 2 || len(rows[1]) != 4 {
		t.Fatalf("matrix shape: %d rows, first %d, second %d", len(rows), len(rows[0]), len(rows[1]))
	}
	// −74 low bits: 011_0110 → groups [0, 11, 01, 10]. Group 0 value is 0:
	// receiver 0 → EQ, receiver 1 → GT.
	if rows[0][0] != TokenEQ || rows[0][1] != TokenGT {
		t.Errorf("group0 tokens = %v", rows[0])
	}
	// Group 1 value is 3: receivers 0..2 → LT, 3 → EQ.
	if rows[1][0] != TokenLT || rows[1][3] != TokenEQ {
		t.Errorf("group1 tokens = %v", rows[1])
	}
	// Final group (value 2): equality resolved to GT when flip=0.
	if rows[3][2] != TokenGT {
		t.Errorf("final group equality token = %d, want GT", rows[3][2])
	}
	// Flip swaps labels.
	flipped := SenderTokens(ga, widths, 1)
	if flipped[1][0] != TokenGT || flipped[0][1] != TokenLT {
		t.Error("flip did not swap LT/GT")
	}
	if flipped[3][2] != TokenLT {
		t.Error("flipped final-group equality token should be LT")
	}
}

func TestScanTokens(t *testing.T) {
	if v, _ := ScanTokens([]byte{TokenEQ, TokenLT, TokenGT}); v != 1 {
		t.Error("first non-EQ LT should yield 1")
	}
	if v, _ := ScanTokens([]byte{TokenEQ, TokenGT, TokenLT}); v != 0 {
		t.Error("first non-EQ GT should yield 0")
	}
	if _, err := ScanTokens([]byte{TokenEQ, TokenEQ}); err == nil {
		t.Error("all-EQ must be rejected")
	}
	if _, err := ScanTokens([]byte{0}); err == nil {
		t.Error("invalid token must be rejected")
	}
}

func TestMSBExhaustiveSmallRing(t *testing.T) {
	// Every share pair of a 6-bit ring: the protocol must compute the sign
	// of (x_i + x_j) mod Q exactly.
	r := ring.New(6)
	var xi, xj, want []uint64
	for a := uint64(0); a <= r.Mask; a++ {
		for b := uint64(0); b <= r.Mask; b++ {
			xi = append(xi, a)
			xj = append(xj, b)
			want = append(want, r.MSB(r.Add(a, b)))
		}
	}
	got := runMSB(t, r, xi, xj, 100)
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("pair (%d,%d): MSB=%d want %d", xi[k], xj[k], got[k], want[k])
		}
	}
}

func TestMSBPaperExamples(t *testing.T) {
	// Sec. 4.4 walks (x_i, x_j) = (125, 7) → x = 132 ≡ −124 < 0, and
	// (x_i, x_j) = (−2, −2) → x = −4 < 0, both in INT8.
	r := ring.New(8)
	xi := []uint64{r.FromInt(125), r.FromInt(-2)}
	xj := []uint64{r.FromInt(7), r.FromInt(-2)}
	got := runMSB(t, r, xi, xj, 200)
	if got[0] != 1 || got[1] != 1 {
		t.Errorf("paper examples: got %v, both must be negative", got)
	}
	if r.ToInt(r.Add(xi[0], xj[0])) != -124 {
		t.Error("reconstruction of first example should be -124")
	}
}

func TestMSBRandomLargeRing(t *testing.T) {
	r := ring.New(16)
	g := prg.NewSeeded(7)
	n := 300
	xi := make([]uint64, n)
	xj := make([]uint64, n)
	want := make([]uint64, n)
	for k := 0; k < n; k++ {
		xi[k] = g.Elem(r)
		xj[k] = g.Elem(r)
		want[k] = r.MSB(r.Add(xi[k], xj[k]))
	}
	got := runMSB(t, r, xi, xj, 300)
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("element %d: got %d want %d", k, got[k], want[k])
		}
	}
}

func TestMSBMaskBitsLookRandom(t *testing.T) {
	// The sender's boolean shares are its own uniform masks; over many
	// elements both values should occur.
	r := ring.New(12)
	g := prg.NewSeeded(8)
	n := 400
	xi := g.Elems(n, r)
	xj := g.Elems(n, r)
	e0, e1, closeFn := newEndpoints(500)
	defer closeFn()
	var m0 []uint64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); m0, _ = MSBSenderPar(e0, prg.NewSeeded(501), r, xi, nil) }()
	go func() { defer wg.Done(); MSBReceiverPar(e1, r, xj, nil) }()
	wg.Wait()
	ones := 0
	for _, b := range m0 {
		ones += int(b)
	}
	if ones < n/4 || ones > 3*n/4 {
		t.Errorf("mask bits look biased: %d ones of %d", ones, n)
	}
}

func TestMSBRingTooSmall(t *testing.T) {
	e0, _, closeFn := newEndpoints(600)
	defer closeFn()
	if _, err := MSBSenderPar(e0, prg.NewSeeded(601), ring.New(1), []uint64{0}, nil); err == nil {
		t.Error("1-bit ring must be rejected")
	}
	if _, err := MSBReceiverPar(e0, ring.New(1), []uint64{0}, nil); err == nil {
		t.Error("1-bit ring must be rejected (receiver)")
	}
}

func TestMSBCommScalesWithBitWidth(t *testing.T) {
	// The whole point of adaptive quantization: comparison traffic is
	// proportional to the bit-width. 32-bit must cost ≈2× the bytes of
	// 16-bit.
	measure := func(bits uint) uint64 {
		r := ring.New(bits)
		g := prg.NewSeeded(9)
		n := 128
		xi := g.Elems(n, r)
		xj := g.Elems(n, r)
		dealer := ot.NewDealer(prg.NewSeeded(10))
		a, b := transport.Pipe()
		defer a.Close()
		defer b.Close()
		e0 := ot.NewEndpoint(0, a, prg.NewSeeded(11))
		e0.Dealer = dealer
		e1 := ot.NewEndpoint(1, b, prg.NewSeeded(12))
		e1.Dealer = dealer
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); MSBSenderPar(e0, prg.NewSeeded(13), r, xi, nil) }()
		go func() { defer wg.Done(); MSBReceiverPar(e1, r, xj, nil) }()
		wg.Wait()
		// Every byte sent on one endpoint of a pipe is received on the
		// other, so one endpoint's TotalBytes is the whole conversation.
		return a.Stats().TotalBytes()
	}
	c16 := measure(16)
	c32 := measure(32)
	ratio := float64(c32) / float64(c16)
	if ratio < 1.7 || ratio > 2.4 {
		t.Errorf("comm ratio 32/16 = %.2f (c16=%d c32=%d), want ≈2", ratio, c16, c32)
	}
}

func TestQuadrantOf(t *testing.T) {
	r := ring.New(8)
	// (x_i, x_j) = (−2, −2): −x_i = 2 ≥ 0, x_j < 0 → Q4 in standard
	// orientation (the paper's example labels it 2-2 in its own numbering).
	if q := QuadrantOf(r, r.FromInt(-2), r.FromInt(-2)); q != Q4 {
		t.Errorf("(-2,-2) quadrant = %v", q)
	}
	if q := QuadrantOf(r, r.FromInt(125), r.FromInt(7)); q != Q2 {
		// −125 < 0, 7 ≥ 0.
		t.Errorf("(125,7) quadrant = %v", q)
	}
	if q := QuadrantOf(r, r.FromInt(-5), r.FromInt(3)); q != Q1 {
		t.Errorf("(-5,3) quadrant = %v", q)
	}
	if q := QuadrantOf(r, r.FromInt(100), r.FromInt(-3)); q != Q3 {
		t.Errorf("(100,-3) quadrant = %v", q)
	}
}

func TestDirectSignAgreesWithTruth(t *testing.T) {
	// Whenever the early exit claims a sign, it must be correct.
	r := ring.New(8)
	direct := 0
	for xi := uint64(0); xi <= r.Mask; xi++ {
		for xj := uint64(0); xj <= r.Mask; xj++ {
			neg, ok := DirectSign(r, xi, xj)
			if !ok {
				continue
			}
			direct++
			if neg != SignOf(r, xi, xj) {
				t.Fatalf("DirectSign(%d,%d) = %v, truth %v", xi, xj, neg, SignOf(r, xi, xj))
			}
		}
	}
	// Exactly half of all pairs have differing second bits.
	total := int(r.Q() * r.Q())
	if direct != total/2 {
		t.Errorf("direct-decidable pairs = %d of %d, want half", direct, total)
	}
}

func TestCensusFig7(t *testing.T) {
	// Fig. 7(a): the 1st and 3rd quadrants split between signs; the
	// census must cover every pair exactly once.
	r := ring.New(6)
	c := Census(r)
	total := 0
	for q := Q1; q <= Q4; q++ {
		total += c.Total[q]
		if c.Total[q] != int(r.Q()*r.Q())/4 {
			t.Errorf("quadrant %d has %d pairs", q, c.Total[q])
		}
	}
	if total != int(r.Q()*r.Q()) {
		t.Errorf("census covered %d pairs", total)
	}
	// In Q1 (−x_i ≥ 0, x_j ≥ 0) x = x_j − (−x_i) never wraps: negative
	// exactly when x_j < −x_i, i.e. just under half the pairs.
	if c.Negative[Q1] == 0 || c.Negative[Q1] >= c.Total[Q1] {
		t.Error("Q1 must contain both signs")
	}
}
