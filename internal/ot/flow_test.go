package ot

import (
	"errors"
	"math"
	"math/big"
	"testing"

	"aq2pnn/internal/prg"
	"aq2pnn/internal/transport"
)

// seededGroup draws a 512-bit prime from a seeded PRG, with generator 5:
// a group of the kind DefaultGroup builds, but reproducible. qr selects
// whether 5 is a quadratic residue mod P, which is when the Legendre
// distinguisher below applies.
func seededGroup(t *testing.T, seed uint64, qr bool) Group {
	t.Helper()
	g := prg.NewSeeded(seed)
	five := big.NewInt(5)
	buf := make([]byte, 64)
	for range 100000 {
		g.Read(buf)
		buf[0] |= 0xC0
		buf[63] |= 1
		p := new(big.Int).SetBytes(buf)
		if !p.ProbablyPrime(20) || (big.Jacobi(five, p) == 1) != qr {
			continue
		}
		return Group{P: p, G: five}
	}
	t.Fatal("no seeded prime found")
	return Group{}
}

// recordConn keeps a copy of every frame one party sends and receives.
type recordConn struct {
	transport.Conn
	sent, recv [][]byte
}

func (c *recordConn) Send(p []byte) error {
	c.sent = append(c.sent, append([]byte(nil), p...))
	return c.Conn.Send(p)
}

func (c *recordConn) Recv() ([]byte, error) {
	p, err := c.Conn.Recv()
	if err == nil {
		c.recv = append(c.recv, append([]byte(nil), p...))
	}
	return p, err
}

// TestFlowReceiverHidesChoice plays a curious flow sender: from its view
// alone (the header it sent and the receiver's R frame) it tries to rule
// out one of the two candidates of every 1-of-2 base OT. A candidate l is
// ruled out when the group element the sender would unblind for it,
// under either the XOR or the multiplicative reading of R, is one the
// receiver's g^r can never be: at least P, or a quadratic non-residue
// while G is a residue. Whenever exactly one candidate is ruled out the
// sender guesses the other. Over groups of the DefaultGroup kind, one
// where 5 is a residue and one where it is not, its right guesses must
// not outnumber its wrong ones beyond a four-sigma band: the choice bits
// are Δ of the extension that the base OTs seed.
func TestFlowReceiverHidesChoice(t *testing.T) {
	const insts = 256
	right, wrong := 0, 0
	for i, qr := range []bool{true, false} {
		grp := seededGroup(t, 1101+uint64(i), qr)
		a, b := transport.Pipe()
		rc := &recordConn{Conn: a}
		g := prg.NewSeeded(1201 + uint64(i))
		choices := make([]int, insts)
		msgs := make([][][]byte, insts)
		for k := range choices {
			choices[k] = g.Intn(2)
			msgs[k] = [][]byte{{0}, {1}}
		}
		both(t,
			func() error { return FlowSend(rc, grp, prg.NewSeeded(1301+uint64(i)), 2, msgs) },
			func() error { _, err := FlowRecv(b, prg.NewSeeded(1401+uint64(i)), 2, choices, 1); return err })
		a.Close()
		b.Close()
		hdr, err := decodeFlowHeader(rc.sent[0])
		if err != nil {
			t.Fatal(err)
		}
		eb := grp.ElemBytes()
		pows := [2]*big.Int{grp.Exp(hdr.rHat, hdr.labels[0]), grp.Exp(hdr.rHat, hdr.labels[1])}
		for k, c := range choices {
			rBytes := rc.recv[0][k*eb : (k+1)*eb]
			R := new(big.Int).SetBytes(rBytes)
			for _, unblind := range []func(l int) *big.Int{
				func(l int) *big.Int { // XOR reading: R ⊕ ŕ^{e(l)}
					x := grp.Encode(pows[l])
					for j := range x {
						x[j] ^= rBytes[j]
					}
					return new(big.Int).SetBytes(x)
				},
				func(l int) *big.Int { // multiplicative reading: R·ŕ^{−e(l)}
					inv := new(big.Int).ModInverse(pows[l], grp.P)
					return inv.Mul(inv, R).Mod(inv, grp.P)
				},
			} {
				var out [2]bool
				for l := range out {
					x := unblind(l)
					out[l] = x.Cmp(grp.P) >= 0 || x.Sign() == 0 || (qr && big.Jacobi(x, grp.P) == -1)
				}
				if out[0] == out[1] {
					continue
				}
				guess := 0
				if out[0] {
					guess = 1
				}
				if guess == c {
					right++
				} else {
					wrong++
				}
			}
		}
	}
	band := 4*int(math.Sqrt(float64(right+wrong))) + 4
	if right-wrong > band {
		t.Errorf("the sender's view guessed %d choices right and %d wrong out of %d (band %d): R leaks the choice",
			right, wrong, 2*insts, band)
	}
}

// TestFlowRejectsOutOfRangeElems sends each side of a flow a peer element
// outside [1, P): ŕ = 0 and G = P in the header, R = 0 and R = P in the R
// frame. Each must be refused with an *ElemError naming the element.
func TestFlowRejectsOutOfRangeElems(t *testing.T) {
	grp := TestGroup()
	good := flowHeader{group: grp, labels: []*big.Int{big.NewInt(7), big.NewInt(11)}, rHat: grp.ExpG(big.NewInt(5))}
	badHat, badG := good, good
	badHat.rHat = big.NewInt(0)
	badG.group = Group{P: grp.P, G: grp.P}
	for _, tc := range []struct {
		field  string
		hdr    flowHeader
		rFrame []byte
	}{
		{"ŕ", badHat, nil},
		{"G", badG, nil},
		{"R", good, append(grp.Encode(grp.G), make([]byte, grp.ElemBytes())...)},
		{"R", good, append(grp.Encode(grp.G), grp.Encode(grp.P)...)},
	} {
		var err error
		if tc.rFrame == nil {
			_, err = decodeFlowHeader(tc.hdr.encode())
		} else {
			a, b := transport.Pipe()
			if err := b.Send(tc.rFrame); err != nil {
				t.Fatal(err)
			}
			err = FlowSend(a, grp, prg.NewSeeded(71), 2, [][][]byte{{{0}, {1}}, {{0}, {1}}})
			a.Close()
			b.Close()
		}
		var ee *ElemError
		if !errors.As(err, &ee) || ee.Field != tc.field {
			t.Errorf("%s outside [1, P): err %v, want an *ElemError on %s", tc.field, err, tc.field)
		}
	}
}

// TestDefaultGroupConcurrent calls DefaultGroup from two goroutines at
// once: the race detector flags an unsynchronised lazy set-up, and both
// callers must get the same prime.
func TestDefaultGroupConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("prime generation")
	}
	var g [2]Group
	both(t,
		func() error { g[0] = DefaultGroup(); return nil },
		func() error { g[1] = DefaultGroup(); return nil })
	if g[0].P.Cmp(g[1].P) != 0 || g[0].G.Cmp(g[1].G) != 0 {
		t.Error("concurrent DefaultGroup calls returned different groups")
	}
}
