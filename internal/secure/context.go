// Package secure implements the 2PC-DNN operators of AQ2PNN: AS-GEMM
// ciphertext-ciphertext matrix multiplication with Beaver triples (Eq. 1,
// Alg. 1), the AS-ALU local operations, 2PC-BNReQ requantization, the
// ABReLU activation (A2BM + SCM + OT multiplexer, Sec. 4.4), 2PC-MaxPool
// and 2PC-AvgPool, and the share ring-extension that realizes adaptive
// per-layer bit-widths.
//
// Every operator is written from one party's perspective against a
// Context; the two parties run the same call sequence concurrently,
// exchanging only masked data through the transport. Each operator's
// result shares reconstruct to exactly the plaintext-domain integer result
// (up to the documented ±1 LSB of probabilistic truncation).
package secure

import (
	"fmt"
	"sync"

	"aq2pnn/internal/ot"
	"aq2pnn/internal/parallel"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/share"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
)

// Context is one party's execution environment: its identity, the channel
// to the peer, the OT endpoint and local randomness. Beaver triples come
// from the triple.Family each prepared linear layer is bound to
// (BindLinear).
type Context struct {
	Party share.Party
	Conn  transport.Conn
	OT    *ot.Endpoint
	Rng   *prg.PRG
	// LocalTrunc selects the paper's zero-communication local share
	// truncation for requantization instead of the default faithful
	// truncation (see trunc.go). Both parties must agree.
	LocalTrunc bool
	// Pool distributes this party's local compute (GEMM rows, SCM token
	// matrices, OT message assembly) over the shared worker pool; nil runs
	// serially. Parallelism never changes the protocol transcript, so the
	// two parties may use different pools.
	Pool *parallel.Pool
	// Trace threads the current telemetry span through this party's
	// sequential operator calls; nil (the default) disables tracing at one
	// branch per operator. Tracing never touches protocol bytes, so
	// outputs are bit-identical with it on or off. Set via SetTrace so the
	// OT endpoint shares the same scope.
	Trace *telemetry.Scope
}

// SetTrace installs a telemetry scope on the context and its OT endpoint
// (they belong to the same sequential party flow). A nil scope disables
// tracing.
func (c *Context) SetTrace(s *telemetry.Scope) {
	c.Trace = s
	if c.OT != nil {
		c.OT.Trace = s
	}
}

// P returns the party index as an int (0 for i, 1 for j).
func (c *Context) P() int { return int(c.Party) }

// Open reconstructs a shared vector for both parties: each sends its share
// and adds the peer's.
func (c *Context) Open(r ring.Ring, x []uint64) ([]uint64, error) {
	return transport.ExchangeOpen(c.Conn, r, c.P(), x)
}

// RevealTo reconstructs a shared vector for one party only. The receiving
// party obtains the values; the other returns nil.
func (c *Context) RevealTo(r ring.Ring, to share.Party, x []uint64) ([]uint64, error) {
	if c.Party == to {
		theirs, err := transport.RecvElems(c.Conn, r, len(x))
		if err != nil {
			return nil, err
		}
		out := make([]uint64, len(x))
		r.AddVec(out, x, theirs)
		return out, nil
	}
	return nil, transport.SendElems(c.Conn, r, x)
}

// Session holds the two in-process party contexts used by tests, examples
// and the experiment harness: dealer-backed OT over an in-memory pipe,
// mirroring the paper's "pre-compute constants loaded into the AS-CST
// buffer" setup. Linear layers bind triples from a dealt triple.FixedB
// pool.
type Session struct {
	P0, P1 *Context
	connA  transport.Conn
	connB  transport.Conn
}

// NewLocalSession wires two contexts with dealer-backed OT. The seed makes
// runs reproducible.
func NewLocalSession(seed uint64) *Session {
	return NewLocalSessionFrom(prg.NewSeeded(seed))
}

// NewLocalSessionFrom is NewLocalSession drawing all session randomness
// from an existing generator — the batch executor forks one per image so
// every image's transcript is independent of how images are scheduled
// across workers.
func NewLocalSessionFrom(master *prg.PRG) *Session {
	otDealer := ot.NewDealer(master.Fork())
	master.Fork() // Fork advances master: keeps the streams below at their pinned positions
	a, b := transport.Pipe()
	mk := func(party int, conn transport.Conn) *Context {
		ep := ot.NewEndpoint(party, conn, master.Fork())
		ep.Dealer = otDealer
		return &Context{
			Party: share.Party(party),
			Conn:  conn,
			OT:    ep,
			Rng:   master.Fork(),
		}
	}
	return &Session{P0: mk(0, a), P1: mk(1, b), connA: a, connB: b}
}

// Run executes the two party functions concurrently and joins their errors.
func (s *Session) Run(f0, f1 func(*Context) error) error {
	var wg sync.WaitGroup
	var e0, e1 error
	wg.Add(2)
	go func() { defer wg.Done(); e0 = f0(s.P0) }()
	go func() { defer wg.Done(); e1 = f1(s.P1) }()
	wg.Wait()
	if e0 != nil {
		return fmt.Errorf("party i: %w", e0)
	}
	if e1 != nil {
		return fmt.Errorf("party j: %w", e1)
	}
	return nil
}

// Stats returns the two endpoints' traffic counters.
func (s *Session) Stats() (p0, p1 transport.Stats) {
	return s.connA.Stats(), s.connB.Stats()
}

// ResetStats zeroes both endpoints' counters (e.g. after the setup phase,
// so online communication is measured separately, as the paper does).
func (s *Session) ResetStats() {
	s.connA.ResetStats()
	s.connB.ResetStats()
}

// Close tears down the pipe.
func (s *Session) Close() {
	s.connA.Close()
	s.connB.Close()
}
