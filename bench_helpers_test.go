package aq2pnn

// Helpers for the protocol micro-benchmarks in bench_test.go: a reusable
// two-party session exercising single secure operators.

import (
	"testing"

	"aq2pnn/internal/ot"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/secure"
	"aq2pnn/internal/share"
	"aq2pnn/internal/transport"
	"aq2pnn/internal/triple"
)

type secureRunner struct {
	sess *secure.Session
	r    ring.Ring
	g    *prg.PRG
	// l holds each party's prepared GEMM layer, set up by gemm's first
	// call.
	l [2]*secure.Linear
}

func newSecureRunner() *secureRunner {
	return &secureRunner{sess: secure.NewLocalSession(1), r: ring.New(16), g: prg.NewSeeded(2)}
}

// gemm multiplies a fresh shared input against a prepared weight layer,
// as inference does: the first call deals the layer's fixed mask B and
// opens F once, and every call exchanges only the E mask.
func (sr *secureRunner) gemm() error {
	m, k, n := 16, 64, 16 // one AS-GEMM array tile column sweep
	if sr.l[0] == nil {
		fb, err := triple.DealFixedB(sr.g.Fork(), sr.r, k, n)
		if err != nil {
			return err
		}
		var w [2][]uint64
		w[0], w[1] = share.SplitVec(sr.g, sr.r, sr.g.Elems(k*n, sr.r))
		prepare := func(c *secure.Context) error {
			prep, err := c.PrepareLinear(sr.r, w[c.P()], fb.BShare(c.P()), k, n)
			if err != nil {
				return err
			}
			sr.l[c.P()] = c.BindLinear(prep, &dealtFamily{fb: fb, g: prg.NewSeeded(3), party: c.P()})
			return nil
		}
		if err := sr.sess.Run(prepare, prepare); err != nil {
			return err
		}
	}
	var in [2][]uint64
	in[0], in[1] = share.SplitVec(sr.g, sr.r, sr.g.Elems(m*k, sr.r))
	mul := func(c *secure.Context) error { _, err := sr.l[c.P()].Mul(in[c.P()], m); return err }
	return sr.sess.Run(mul, mul)
}

func (sr *secureRunner) relu() error {
	vals := make([]int64, 512)
	for i := range vals {
		vals[i] = sr.g.Int64n(10000)
	}
	x0, x1 := share.SplitVec(sr.g, sr.r, sr.r.FromInts(vals))
	return sr.sess.Run(
		func(c *secure.Context) error { _, err := c.ABReLU(sr.r, x0); return err },
		func(c *secure.Context) error { _, err := c.ABReLU(sr.r, x1); return err })
}

func benchSecureOp(b *testing.B, op func(*secureRunner) error) {
	b.Helper()
	sr := newSecureRunner()
	defer sr.sess.Close()
	// One untimed call first: it sets up what the op reuses (gemm's
	// prepared layer).
	if err := op(sr); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(sr); err != nil {
			b.Fatal(err)
		}
	}
}

func runOTFlowOnce() error {
	a, bConn := transport.Pipe()
	defer a.Close()
	defer bConn.Close()
	msgs := make([][][]byte, 32)
	choices := make([]int, 32)
	for k := range msgs {
		msgs[k] = [][]byte{{1}, {2}, {3}, {4}}
		choices[k] = k % 4
	}
	errCh := make(chan error, 1)
	go func() {
		errCh <- ot.FlowSend(a, ot.TestGroup(), prg.NewSeeded(1), 4, msgs)
	}()
	if _, err := ot.FlowRecv(bConn, prg.NewSeeded(2), 4, choices, 1); err != nil {
		return err
	}
	return <-errCh
}

// dealtFamily is one party's family over a dealt layer: each Next deals a
// fresh pair of views from the family's own generator and keeps the
// party's. Both parties' generators are seeded alike, so they deal the
// same pairs in the same order.
type dealtFamily struct {
	fb    *triple.FixedB
	g     *prg.PRG
	party int
}

func (f *dealtFamily) Next(m int) (*triple.Mat, error) { return f.fb.Deal(f.g, m)[f.party], nil }
