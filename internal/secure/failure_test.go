package secure

import (
	"errors"
	"strings"
	"testing"

	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/share"
	"aq2pnn/internal/transport"
)

// Failure injection: every protocol layer must surface transport faults
// as errors — never hang, never return silently wrong shares.

// faultySession wraps party 0's connection so it fails after n ops. The
// trip closes the underlying pipe, which unblocks the peer (a deployment
// sees the same when the faulted party's connection dies).
func faultySession(seed uint64, opsBeforeFault int) *Session {
	s := NewLocalSession(seed)
	f := transport.NewFaults(transport.FaultPlan{FailAfter: opsBeforeFault}, nil).Wrap(s.P0.Conn)
	s.P0.Conn = f
	s.P0.OT.Conn = f
	return s
}

func TestABReLUSurfacesTransportFault(t *testing.T) {
	r := ring.New(16)
	g := prg.NewSeeded(50)
	x0, x1 := share.SplitVec(g, r, g.Elems(32, r))
	for _, ops := range []int{0, 1, 2, 3} {
		s := faultySession(uint64(51+ops), ops)
		err := s.Run(
			func(c *Context) error { _, e := c.ABReLU(r, x0); return e },
			func(c *Context) error { _, e := c.ABReLU(r, x1); return e })
		s.Close()
		if err == nil {
			t.Fatalf("ops=%d: fault swallowed", ops)
		}
		if !errors.Is(err, transport.ErrInjected) && !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("ops=%d: unexpected error chain: %v", ops, err)
		}
	}
}

func TestPreparedLinearSurfacesFault(t *testing.T) {
	r := ring.New(16)
	g := prg.NewSeeded(60)
	w0, w1 := share.SplitVec(g, r, g.Elems(12, r))
	d := dealLayer(t, 61, r, 3, 4)
	s := faultySession(61, 0)
	defer s.Close()
	err := s.Run(
		func(c *Context) error { _, e := d.prepare(c, w0); return e },
		func(c *Context) error { _, e := d.prepare(c, w1); return e })
	if err == nil {
		t.Fatal("fault swallowed during F opening")
	}
}

func TestTruncateFaithfulSurfacesFault(t *testing.T) {
	r := ring.New(16)
	g := prg.NewSeeded(62)
	x0, x1 := share.SplitVec(g, r, g.Elems(16, r))
	s := faultySession(63, 1)
	defer s.Close()
	err := s.Run(
		func(c *Context) error { return c.TruncateFaithful(r, x0, 3) },
		func(c *Context) error { return c.TruncateFaithful(r, x1, 3) })
	if err == nil {
		t.Fatal("fault swallowed during truncation")
	}
}

func TestMalformedFrameRejected(t *testing.T) {
	// A peer that sends the wrong number of elements must trigger a
	// protocol error, not a mis-parse.
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	r := ring.New(16)
	sendErr := make(chan error, 1)
	go func() { sendErr <- transport.SendElems(a, r, []uint64{1, 2, 3}) }()
	_, err := transport.RecvElems(b, r, 7)
	if err == nil || !strings.Contains(err.Error(), "expected 7 elements") {
		t.Errorf("malformed frame error = %v", err)
	}
	// The mismatched send itself must still have succeeded: the fault is
	// detected by the receiver, not swallowed by the pipe.
	if err := <-sendErr; err != nil {
		t.Errorf("send of malformed frame failed: %v", err)
	}
}

func TestMSBMaskingHidesSignFromReceiver(t *testing.T) {
	// The receiver's boolean share must be statistically independent of
	// the hidden sign: over many fresh sessions with the same positive
	// value, party j's share should flip roughly half the time (it is
	// XOR-masked by party i's random bit).
	r := ring.New(12)
	ones := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		s := NewLocalSession(uint64(1000 + trial))
		g := prg.NewSeeded(uint64(2000 + trial))
		x0, x1 := share.SplitVec(g, r, []uint64{r.FromInt(77)})
		var share1 uint64
		err := s.Run(
			func(c *Context) error { _, e := c.MSBShares(r, x0); return e },
			func(c *Context) error {
				v, e := c.MSBShares(r, x1)
				if e == nil {
					share1 = v[0]
				}
				return e
			})
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		ones += int(share1)
	}
	if ones < trials/4 || ones > 3*trials/4 {
		t.Errorf("receiver share biased: %d/%d ones — the mask is not hiding the sign", ones, trials)
	}
}
