package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/ot"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/transport"
)

func testCfg() Options {
	return Options{CarrierBits: 20, Seed: 4, Group: ot.TestGroup()}
}

func serveOnce(t *testing.T, ctx context.Context, cfg Options, m *nn.Model, sessions int, onSession func(error)) (addr string, done chan error) {
	t.Helper()
	l, err := transport.NewListener("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	reg := registryOf(t, m)
	done = make(chan error, 1)
	go func() { done <- ServeRegistryTCP(ctx, l, reg, cfg, sessions, onSession) }()
	return l.Addr(), done
}

// rawOpen plays a hand-rolled client's opening move on conn: the session
// hello and a fresh attach request, pipelined as Session.establish sends
// them, then the provider's hello. Tests use it to park a provider
// mid-session or to open with something a real client never would. As in
// establish, a provider that rejects at the hello may hang up under the
// attach send, so only the answer is checked.
func rawOpen(t *testing.T, conn transport.Conn, h sessionHello) sessionHello {
	t.Helper()
	sendErr := conn.Send(h.encode())
	if sendErr == nil {
		sendErr = conn.Send(encodeAttach(attachReqMagic, attachFrame{}))
	}
	p, err := conn.Recv()
	if err != nil {
		t.Fatal(errors.Join(sendErr, err))
	}
	peer, err := decodeHello(p)
	if err != nil {
		t.Fatal(err)
	}
	return peer
}

// carrierOf resolves a carrier the test knows to be in range.
func carrierOf(cfg Options, m *nn.Model) ring.Ring {
	r, err := cfg.Carrier(m)
	if err != nil {
		panic(err)
	}
	return r
}

// userHello is the hello a real client sends for (m, cfg).
func userHello(m *nn.Model, cfg Options) sessionHello {
	h := helloFor(roleUser, m, carrierOf(cfg, m), cfg)
	h.Flags |= flagSession
	return h
}

// gatedConn parks a client mid-protocol: its third Send — the first past
// the pipelined hello and attach, so the provider is already running the
// session — closes parked and blocks until Release. Shutdown tests cancel
// the server against a session that is provably in flight, however fast
// the protocol runs, instead of guessing with a sleep.
type gatedConn struct {
	transport.Conn
	sent    atomic.Int32
	parked  chan struct{}
	release chan struct{}
	Release func() // lets the parked Send go on; idempotent
}

func newGatedConn(c transport.Conn) *gatedConn {
	g := &gatedConn{Conn: c, parked: make(chan struct{}), release: make(chan struct{})}
	g.Release = sync.OnceFunc(func() { close(g.release) })
	return g
}

func (c *gatedConn) Send(p []byte) error {
	if c.sent.Add(1) == 3 {
		close(c.parked)
		<-c.release
	}
	return c.Conn.Send(p)
}

// Close releases a still-parked Send, so a failed test leaks no goroutine.
func (c *gatedConn) Close() error {
	c.Release()
	return c.Conn.Close()
}

// waitParked fails the test unless the client reaches the gate.
func (c *gatedConn) waitParked(t *testing.T) {
	t.Helper()
	select {
	case <-c.parked:
	case <-time.After(10 * time.Second):
		t.Fatal("session never reached the gate")
	}
}

// TestServeGracefulDrain cancels the server while a session is parked
// mid-protocol, then lets it go on: the session must still complete (the
// drain grace covers it) and the server return clean.
func TestServeGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked session")
	}
	m := tinyModel(nn.PoolAvg)
	cfg := testCfg()
	cfg.DrainGrace = 30 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var sessionErrs []error
	addr, done := serveOnce(t, ctx, cfg, m, 0, func(err error) {
		mu.Lock()
		sessionErrs = append(sessionErrs, err)
		mu.Unlock()
	})
	conn, err := transport.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	gate := newGatedConn(conn)
	defer gate.Close()
	userDone := make(chan struct{})
	var res *Result
	var errU error
	go func() {
		defer close(userDone)
		res, errU = inferOnce(context.Background(), over(gate), m, input(64), cfg)
	}()
	// Cancel while the session is held past the handshake: the server must
	// stop accepting but let this session drain to completion.
	gate.waitParked(t)
	cancel()
	gate.Release()
	<-userDone
	if errU != nil {
		t.Fatalf("drained session failed: %v", errU)
	}
	if res == nil || len(res.Logits) == 0 {
		t.Fatal("drained session returned no logits")
	}
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown returned %v, want nil", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sessionErrs) != 1 || sessionErrs[0] != nil {
		t.Errorf("onSession observed %v, want one clean session", sessionErrs)
	}
}

// TestServeAbortAfterGrace cancels with a tiny grace while a session is
// parked mid-protocol: the held session must be cut off, reported as
// ErrSessionAborted to onSession and counted, while the server still shuts
// down clean. The client is let go only once the abort is reported, and
// then finds its connection gone.
func TestServeAbortAfterGrace(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked session")
	}
	m := tinyModel(nn.PoolAvg)
	cfg := testCfg()
	cfg.DrainGrace = time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	aborted := make(chan error, 1)
	addr, done := serveOnce(t, ctx, cfg, m, 0, func(err error) { aborted <- err })
	conn, err := transport.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	gate := newGatedConn(conn)
	defer gate.Close()
	userDone := make(chan error, 1)
	go func() {
		_, err := inferOnce(context.Background(), over(gate), m, input(64), cfg)
		userDone <- err
	}()
	gate.waitParked(t)
	cancel()
	select {
	case err := <-aborted:
		if !errors.Is(err, ErrSessionAborted) {
			t.Errorf("aborted session reported %v, want ErrSessionAborted", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("session not torn down after grace expired")
	}
	gate.Release()
	if err := <-userDone; err == nil {
		t.Error("user side of an aborted session succeeded")
	}
	if err := <-done; err != nil {
		t.Errorf("shutdown with aborted sessions returned %v, want nil", err)
	}
}

// TestServeSessionTimeout bounds a session that stalls mid-protocol:
// a client that handshakes and attaches, then goes silent, must not pin a
// provider goroutine forever.
func TestServeSessionTimeout(t *testing.T) {
	m := tinyModel(nn.PoolAvg)
	cfg := testCfg()
	cfg.SessionTimeout = 300 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	aborted := make(chan error, 1)
	addr, done := serveOnce(t, ctx, cfg, m, 1, func(err error) { aborted <- err })
	conn, err := transport.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Valid open, then silence: the provider ships its weight shares and
	// stalls in the first F opening.
	rawOpen(t, conn, userHello(m, cfg))
	select {
	case err := <-aborted:
		if !errors.Is(err, ErrSessionAborted) {
			t.Errorf("stalled session reported %v, want ErrSessionAborted", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stalled session was not timed out")
	}
	if err := <-done; err == nil {
		t.Error("serve loop (sessions=1) swallowed the aborted session error")
	}
}

// TestServeSessionPanicRecovered: a model that panics inside the
// session goroutine (truncated weight slice, the classic) must surface as
// an onSession error, not kill the process.
func TestServeSessionPanicRecovered(t *testing.T) {
	m := tinyModel(nn.PoolAvg)
	// Truncate one Conv weight slice: SplitModel's transpose loop indexes
	// past the end and panics inside the session goroutine.
	for _, node := range m.Nodes {
		if c, ok := node.Op.(*nn.Conv); ok && c.W != nil {
			c.W = c.W[:len(c.W)-1]
			break
		}
	}
	cfg := testCfg()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sessionErr := make(chan error, 1)
	addr, done := serveOnce(t, ctx, cfg, m, 1, func(err error) { sessionErr <- err })
	conn, err := transport.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Complete the hello and attach: the serving path dispatches on the
	// client's hello before touching the weights, so the panic fires only
	// once the session is past the handshake.
	rawOpen(t, conn, userHello(m, cfg))
	select {
	case err := <-sessionErr:
		if err == nil || !strings.Contains(err.Error(), "session panic") {
			t.Errorf("panicking session reported %v, want a recovered panic error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("panicking session never reported")
	}
	conn.Close()
	if err := <-done; err == nil || !strings.Contains(err.Error(), "session panic") {
		t.Errorf("serve loop returned %v, want the recovered panic", err)
	}
}

// TestRetryRecovers is the acceptance scenario: the first attempt dies
// from an injected transport fault, the client's retry loop re-dials, and
// the session of one reveals logits bit-identical to a fault-free run of
// the same (seed, token). A fault during the open re-opens from scratch —
// the provider mints its second token, so the reference burns one first;
// a fault past the open re-attaches through the first token.
func TestRetryRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked sessions")
	}
	m := tinyModel(nn.PoolAvg)
	x := input(64)
	cfg := testCfg()
	cfg.Retries = 2
	cfg.RetryBase = 10 * time.Millisecond
	userOps, _, wantFirst := cleanRun(t, registryOf(t, m), m, x, cfg)
	burned := registryOf(t, m)
	burned.nextToken()
	_, _, wantSecond := cleanRun(t, burned, m, x, cfg)
	for _, tc := range []struct {
		name      string
		failAfter int
		want      []int64
	}{
		{"mid-setup", 6, wantSecond},
		{"mid-inference", userOps - 8, wantFirst}, // well past the open, short of the reveal
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			addr, done := serveOnce(t, ctx, cfg, m, 0, nil)
			dials := 0
			dial := func(ctx context.Context) (transport.Conn, error) {
				conn, err := transport.DialContext(ctx, addr, 5*time.Second)
				if err != nil {
					return nil, err
				}
				dials++
				if dials == 1 {
					return transport.NewFaults(transport.FaultPlan{FailAfter: tc.failAfter}, nil).Wrap(conn), nil
				}
				return conn, nil
			}
			res, err := inferOnce(ctx, dial, m, x, cfg)
			if err != nil {
				t.Fatalf("retry loop failed: %v", err)
			}
			if dials != 2 {
				t.Errorf("dialed %d times, want 2 (one failure, one recovery)", dials)
			}
			assertSameLogits(t, "retried inference", res.Logits, tc.want)
			cancel()
			if err := <-done; err != nil {
				t.Errorf("server shutdown: %v", err)
			}
		})
	}
}

// TestRetryPermanentError: a handshake mismatch must not be retried.
func TestRetryPermanentError(t *testing.T) {
	m := tinyModel(nn.PoolAvg)
	other := tinyModel(nn.PoolMax)
	cfg := testCfg()
	cfg.Retries = 5
	cfg.RetryBase = time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, done := serveOnce(t, ctx, cfg, other, 0, nil)
	dials := 0
	dial := func(ctx context.Context) (transport.Conn, error) {
		dials++
		return transport.DialContext(ctx, addr, 5*time.Second)
	}
	_, err := inferOnce(ctx, dial, m, input(64), cfg)
	var he *HandshakeError
	if !errors.As(err, &he) {
		t.Fatalf("got %v, want *HandshakeError", err)
	}
	if dials != 1 {
		t.Errorf("permanent error retried: %d dials", dials)
	}
	cancel()
	<-done
}

// TestRetryExhaustsBudget: a server that is simply absent yields a
// transient error after Retries+1 attempts.
func TestRetryExhaustsBudget(t *testing.T) {
	cfg := testCfg()
	cfg.Retries = 2
	cfg.RetryBase = time.Millisecond
	m := tinyModel(nn.PoolAvg)
	dials := 0
	dial := func(ctx context.Context) (transport.Conn, error) {
		dials++
		return nil, transport.ErrInjected
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := inferOnce(ctx, dial, m, input(64), cfg)
	if err == nil || !errors.Is(err, transport.ErrInjected) {
		t.Fatalf("got %v, want the final attempt's ErrInjected", err)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("error %v does not report the attempt budget", err)
	}
	if dials != 3 {
		t.Errorf("made %d attempts, want 3", dials)
	}
}

// TestServeCarrierOutOfRange: a provider whose carrier is wider than the
// ring supports fails the session with an error, not a panic, and the
// client's open fails with it.
func TestServeCarrierOutOfRange(t *testing.T) {
	m := tinyModel(nn.PoolAvg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, done := serveOnce(t, ctx, Options{CarrierBits: ring.MaxBits + 1, Seed: 4}, m, 1, nil)
	dial := func(ctx context.Context) (transport.Conn, error) {
		return transport.DialContext(ctx, addr, 5*time.Second)
	}
	if _, err := inferOnce(ctx, dial, m, input(64), Options{CarrierBits: 20, Seed: 4}); err == nil {
		t.Error("a session opened against a provider with an out-of-range carrier")
	}
	if err := <-done; err == nil {
		t.Error("the provider served a session on an out-of-range carrier")
	}
}
