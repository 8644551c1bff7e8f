package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/testutil"
	"aq2pnn/internal/transport"
)

// sessionHarness serves provideConn over in-memory pipes: every dial
// spawns a provider goroutine against the shared registry, so a client's
// retry loop exercises the real park/re-attach path. The provider runs
// untraced (its spans would otherwise pollute client-side span counts).
type sessionHarness struct {
	t   *testing.T
	reg *Registry
	cfg Options

	mu       sync.Mutex
	wg       sync.WaitGroup
	dials    int
	provErrs []error
	// wrap and wrapProvider, when set, may replace the client or the
	// provider end of dial n (1-based).
	wrap, wrapProvider func(dial int, c transport.Conn) transport.Conn
	// beforeDial, when set, runs at the start of dial n — tests use it to
	// hold a re-dial until the faulted provider goroutine has parked.
	beforeDial func(dial int)
}

func newSessionHarness(t *testing.T, m *nn.Model, cfg Options) *sessionHarness {
	t.Helper()
	cfg.Trace = nil
	return &sessionHarness{t: t, reg: registryOf(t, m), cfg: cfg}
}

func (h *sessionHarness) dial(ctx context.Context) (transport.Conn, error) {
	h.mu.Lock()
	h.dials++
	d := h.dials
	reg := h.reg
	h.mu.Unlock()
	if h.beforeDial != nil {
		h.beforeDial(d)
	}
	a, b := transport.Pipe()
	pc := transport.Conn(b)
	if h.wrapProvider != nil {
		if w := h.wrapProvider(d, b); w != nil {
			pc = w
		}
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		defer b.Close()
		err := provideConn(pc, reg, h.cfg)
		h.mu.Lock()
		h.provErrs = append(h.provErrs, err)
		h.mu.Unlock()
	}()
	c := a
	if h.wrap != nil {
		if w := h.wrap(d, a); w != nil {
			c = w
		}
	}
	return c, nil
}

func (h *sessionHarness) providerErrs() []error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]error(nil), h.provErrs...)
}

// waitProviderDone blocks until n provider goroutines have finished —
// the deterministic way to know a faulted session has been parked before
// letting the client's re-dial race it.
func (h *sessionHarness) waitProviderDone(n int) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		h.mu.Lock()
		done := len(h.provErrs)
		h.mu.Unlock()
		if done >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	h.t.Errorf("provider goroutines: %d finished, want %d", len(h.providerErrs()), n)
}

func countSpans(tr *telemetry.Tracer, name string) int {
	n := 0
	for _, r := range tr.Spans() {
		if r.Name == name {
			n++
		}
	}
	return n
}

// TestSessionSteadyState is the tentpole acceptance scenario: one session,
// ten inferences. Setup (weight shares + F openings) crosses the wire
// exactly once; every steady-state inference costs byte-identical online
// traffic, attributed exactly by its telemetry root span.
func TestSessionSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked session")
	}
	m := tinyModel(nn.PoolAvg)
	x := input(64)
	cfg := testCfg()
	h := newSessionHarness(t, m, cfg)
	tr := telemetry.New()
	cfg.Trace = tr
	want, err := m.Forward(x, nn.ForwardOptions{Mode: nn.Ring, Carrier: ring.New(20)})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	s, err := NewClient(h.dial, cfg).OpenSession(ctx, m)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	setup := s.SetupStats()
	if setup.TotalBytes() == 0 {
		t.Error("session open reported zero setup traffic")
	}
	const inferences = 10
	var online []transport.Stats
	for i := 0; i < inferences; i++ {
		res, err := s.Infer(ctx, x)
		if err != nil {
			t.Fatalf("inference %d: %v", i, err)
		}
		if d := maxAbsDiff(res.Logits, want); d > 6 {
			t.Errorf("inference %d: max |logit diff| = %d, want ≤ 6", i, d)
		}
		if res.Setup.TotalBytes() != 0 {
			t.Errorf("inference %d reported setup traffic %v; session inferences are online-only", i, res.Setup)
		}
		if res.Online.TotalBytes() == 0 {
			t.Errorf("inference %d reported zero online traffic", i)
		}
		online = append(online, res.Online)
	}
	if got := s.SetupStats(); got != setup {
		t.Errorf("setup ledger grew in steady state: %+v after %d inferences, %+v at open", got, inferences, setup)
	}
	// Steady state: nothing accumulates across seqs, so every inference's
	// wire cost is byte-identical (same bytes, messages and rounds).
	for i := 1; i < len(online); i++ {
		if online[i] != online[0] {
			t.Errorf("inference %d online %+v, want byte-identical to inference 0 %+v", i, online[i], online[0])
		}
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	h.wg.Wait()
	for i, err := range h.providerErrs() {
		if err != nil {
			t.Errorf("provider session %d: %v", i, err)
		}
	}
	// Telemetry attribution: one open root with the single shares
	// exchange, one root per inference, and each inference root's comm
	// delta is exactly that inference's online traffic.
	if n := countSpans(tr, "user.session.open"); n != 1 {
		t.Errorf("user.session.open spans = %d, want 1", n)
	}
	if n := countSpans(tr, "exchange.shares"); n != 1 {
		t.Errorf("exchange.shares spans = %d, want 1 (weight shares must cross the wire once)", n)
	}
	if n := countSpans(tr, "user.session.infer"); n != inferences {
		t.Errorf("user.session.infer spans = %d, want %d", n, inferences)
	}
	for _, r := range tr.Spans() {
		if r.Name != "user.session.infer" {
			continue
		}
		if !r.HasConn || r.Comm != online[0] {
			t.Errorf("infer span comm %+v, want exact online attribution %+v", r.Comm, online[0])
		}
	}
	// The registry cached the one weight split.
	h.reg.mu.Lock()
	splits := len(h.reg.shares)
	h.reg.mu.Unlock()
	if splits != 1 {
		t.Errorf("registry cached %d weight splits, want 1", splits)
	}
}

// TestSessionWeightShareCacheReused: a second session of the same model
// must hit the provider's cached split instead of re-splitting.
func TestSessionWeightShareCacheReused(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked sessions")
	}
	m := tinyModel(nn.PoolAvg)
	x := input(64)
	cfg := testCfg()
	h := newSessionHarness(t, m, cfg)
	want, err := m.Forward(x, nn.ForwardOptions{Mode: nn.Ring, Carrier: ring.New(20)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c := NewClient(h.dial, cfg)
	for sess := 0; sess < 2; sess++ {
		s, err := c.OpenSession(ctx, m)
		if err != nil {
			t.Fatalf("session %d open: %v", sess, err)
		}
		res, err := s.Infer(ctx, x)
		if err != nil {
			t.Fatalf("session %d infer: %v", sess, err)
		}
		if d := maxAbsDiff(res.Logits, want); d > 6 {
			t.Errorf("session %d: max |logit diff| = %d, want ≤ 6", sess, d)
		}
		if err := s.Close(); err != nil {
			t.Errorf("session %d close: %v", sess, err)
		}
	}
	h.wg.Wait()
	h.reg.mu.Lock()
	splits := len(h.reg.shares)
	h.reg.mu.Unlock()
	if splits != 1 {
		t.Errorf("registry cached %d weight splits across 2 sessions, want 1", splits)
	}
	for i, err := range h.providerErrs() {
		if err != nil {
			t.Errorf("provider session %d: %v", i, err)
		}
	}
}

// TestSessionResumeAfterFault is the satellite-d acceptance scenario: a
// transport fault mid-inference re-dials, re-attaches through the
// resumption token — no setup replay, verified both by span counts and by
// the re-attach wire cost — and replays the interrupted seq to logits
// bit-identical with an unfaulted session.
func TestSessionResumeAfterFault(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked sessions")
	}
	m := tinyModel(nn.PoolAvg)
	x := input(64)
	cfg := testCfg()
	cfg.Retries = 2
	cfg.RetryBase = 5 * time.Millisecond
	ctx := context.Background()
	const inferences = 3

	// Clean reference session. A fresh registry's token stream is
	// deterministic, so the faulted runs below mint the same session token
	// and thus the same per-session B masks — transcripts must match bit
	// for bit.
	hA := newSessionHarness(t, m, cfg)
	sA, err := NewClient(hA.dial, cfg).OpenSession(ctx, m)
	if err != nil {
		t.Fatalf("clean open: %v", err)
	}
	setup := sA.SetupStats()
	setupOps := int(setup.MsgsSent + setup.MsgsRecv)
	var want [][]int64
	inferOps := 0
	for i := 0; i < inferences; i++ {
		res, err := sA.Infer(ctx, x)
		if err != nil {
			t.Fatalf("clean inference %d: %v", i, err)
		}
		want = append(want, res.Logits)
		inferOps = int(res.Online.MsgsSent + res.Online.MsgsRecv)
	}
	sA.Close()
	hA.wg.Wait()

	// Die mid-way through the second inference (seq=1): past setup, past a
	// completed inference, in the middle of the next one's transcript.
	failAt := setupOps + inferOps + inferOps/2
	for _, tc := range []struct {
		name string
		plan transport.FaultPlan
	}{
		{"drop", transport.FaultPlan{FailAfter: failAt}},
		{"corrupt", transport.FaultPlan{FailAfter: failAt, Corrupt: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hB := newSessionHarness(t, m, cfg)
			ccfg := cfg
			tr := telemetry.New()
			ccfg.Trace = tr
			hB.wrap = func(dial int, c transport.Conn) transport.Conn {
				if dial == 1 {
					return transport.NewChaosConn(c, tc.plan)
				}
				return nil
			}
			// Hold the recovery dial until the faulted provider goroutine
			// has observed the hang-up and parked the session state.
			hB.beforeDial = func(dial int) {
				if dial == 2 {
					hB.waitProviderDone(1)
				}
			}
			s, err := NewClient(hB.dial, ccfg).OpenSession(ctx, m)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			token := s.Token()
			openSetup := s.SetupStats().TotalBytes()
			manualRetry := false
			for i := 0; i < inferences; i++ {
				res, err := s.Infer(ctx, x)
				if err != nil && tc.plan.Corrupt && !manualRetry {
					// A corrupted frame may be rejected by the strict wire
					// validation as hostile input — a permanent, typed error
					// rather than a transparent transient retry. The session
					// handle stays usable: the next call re-attaches through
					// the token and replays the same seq.
					manualRetry = true
					res, err = s.Infer(ctx, x)
				}
				if err != nil {
					t.Fatalf("inference %d: %v", i, err)
				}
				for j := range want[i] {
					if res.Logits[j] != want[i][j] {
						t.Fatalf("inference %d logits %v, want bit-identical resumption %v", i, res.Logits, want[i])
					}
				}
			}
			if hB.dials != 2 {
				t.Errorf("dialed %d times, want 2 (one fault, one resume)", hB.dials)
			}
			if s.Token() != token {
				t.Errorf("token changed across resume: %x → %x", token, s.Token())
			}
			// No setup replay: the weight shares crossed once, and the
			// re-attach added only hello + attach frames to the setup
			// ledger (tens of bytes, not a weight payload).
			if n := countSpans(tr, "exchange.shares"); n != 1 {
				t.Errorf("exchange.shares spans = %d, want 1 (resume must not replay setup)", n)
			}
			if delta := s.SetupStats().TotalBytes() - openSetup; delta == 0 || delta > 256 {
				t.Errorf("re-attach setup delta = %d bytes, want small and nonzero (hello+attach only)", delta)
			}
			s.Close()
			hB.wg.Wait()
			errs := hB.providerErrs()
			failed := 0
			for _, err := range errs {
				if err == nil {
					continue
				}
				failed++
				if !transport.IsTransient(err) {
					t.Errorf("faulted provider session error %v not classified transient", err)
				}
			}
			if failed != 1 || len(errs) != 2 {
				t.Errorf("provider sessions %v, want one transient failure and one clean", errs)
			}
			hB.reg.mu.Lock()
			parked := len(hB.reg.parked)
			hB.reg.mu.Unlock()
			if parked != 0 {
				t.Errorf("%d sessions still parked after clean close, want 0", parked)
			}
		})
	}
}

// stallConn parks its at-th transport operation until release is closed,
// announcing the stall on reached: a peer that stops mid-protocol for as
// long as the test needs it to.
type stallConn struct {
	transport.Conn
	at, ops          int
	reached, release chan struct{}
}

func (c *stallConn) step() {
	if c.ops == c.at {
		close(c.reached)
		<-c.release
	}
	c.ops++
}

func (c *stallConn) Send(p []byte) error   { c.step(); return c.Conn.Send(p) }
func (c *stallConn) Recv() ([]byte, error) { c.step(); return c.Conn.Recv() }

// TestSessionInferHonoursContext: Infer is bound to its own ctx, not just
// to the one the connection was dialed under. The provider stalls
// mid-inference, the caller cancels, and Infer must return ctx's error
// promptly instead of waiting the stall out; the handle then heals on the
// next call — re-attach, replay of the same seq, bit-identical logits —
// and nothing leaks.
func TestSessionInferHonoursContext(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked sessions")
	}
	m := tinyModel(nn.PoolAvg)
	x := input(64)
	cfg := testCfg()
	ctx := context.Background()
	base := runtime.NumGoroutine()

	// Clean reference: the logits, and where mid-inference is.
	hA := newSessionHarness(t, m, cfg)
	sA, err := NewClient(hA.dial, cfg).OpenSession(ctx, m)
	if err != nil {
		t.Fatalf("clean open: %v", err)
	}
	want, err := sA.Infer(ctx, x)
	if err != nil {
		t.Fatalf("clean inference: %v", err)
	}
	setup := sA.SetupStats()
	stallAt := int(setup.MsgsSent+setup.MsgsRecv) + int(want.Online.MsgsSent+want.Online.MsgsRecv)/2
	sA.Close()
	hA.wg.Wait()

	stalled := &stallConn{at: stallAt, reached: make(chan struct{}), release: make(chan struct{})}
	hB := newSessionHarness(t, m, cfg)
	hB.wrapProvider = func(dial int, c transport.Conn) transport.Conn {
		if dial == 1 {
			stalled.Conn = c
			return stalled
		}
		return nil
	}
	// Hold the healing dial until the stalled provider has woken up on a
	// dead connection and parked the session.
	hB.beforeDial = func(dial int) {
		if dial == 2 {
			hB.waitProviderDone(1)
		}
	}
	s, err := NewClient(hB.dial, cfg).OpenSession(ctx, m)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cancelled := make(chan time.Time, 1)
	go func() {
		<-stalled.reached
		cancelled <- time.Now()
		cancel()
	}()
	_, err = s.Infer(cctx, x)
	late := time.Since(<-cancelled)
	close(stalled.release)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Infer returned %v, want context.Canceled in the chain", err)
	}
	if late > time.Second {
		t.Errorf("Infer returned %v after the cancel, want under 1s", late)
	}
	res, err := s.Infer(ctx, x)
	if err != nil {
		t.Fatalf("inference after the cancelled one: %v", err)
	}
	assertSameLogits(t, "healed inference", res.Logits, want.Logits)
	if hB.dials != 2 {
		t.Errorf("dialed %d times, want 2 (open, heal)", hB.dials)
	}
	s.Close()
	hB.wg.Wait()
	testutil.CheckGoroutines(t, base)
}

// TestSessionAttachMissFallsBack: a resume token the provider no longer
// holds (here: a registry swap, the provider-restart stand-in) must fall
// back to a fresh setup under the same client handle — the session heals
// instead of erroring, at the cost of one setup replay.
func TestSessionAttachMissFallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked sessions")
	}
	m := tinyModel(nn.PoolAvg)
	x := input(64)
	cfg := testCfg()
	cfg.Retries = 2
	cfg.RetryBase = 5 * time.Millisecond
	ctx := context.Background()
	want, err := m.Forward(x, nn.ForwardOptions{Mode: nn.Ring, Carrier: ring.New(20)})
	if err != nil {
		t.Fatal(err)
	}

	h := newSessionHarness(t, m, cfg)
	ccfg := cfg
	tr := telemetry.New()
	ccfg.Trace = tr
	// Measure one clean session to place the fault mid-second-inference.
	s0, err := NewClient(h.dial, cfg).OpenSession(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	setup := s0.SetupStats()
	res0, err := s0.Infer(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	s0.Close()
	failAt := int(setup.MsgsSent+setup.MsgsRecv) + 3*int(res0.Online.MsgsSent+res0.Online.MsgsRecv)/2

	h.wrap = func(dial int, c transport.Conn) transport.Conn {
		if dial == 2 { // the session under test; dial 1 was the probe
			return transport.NewChaosConn(c, transport.FaultPlan{FailAfter: failAt})
		}
		return nil
	}
	s, err := NewClient(h.dial, ccfg).OpenSession(ctx, m)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	tokenBefore := s.Token()
	if _, err := s.Infer(ctx, x); err != nil {
		t.Fatalf("inference 0: %v", err)
	}
	// Simulate a provider restart: a fresh registry holds the model but
	// none of the parked state, so the re-attach token must miss.
	h.mu.Lock()
	h.reg = NewRegistry()
	if err := h.reg.Add(m); err != nil {
		t.Fatal(err)
	}
	h.mu.Unlock()
	res, err := s.Infer(ctx, x) // faults mid-way, resumes against the new registry
	if err != nil {
		t.Fatalf("inference 1 after registry swap: %v", err)
	}
	if d := maxAbsDiff(res.Logits, want); d > 6 {
		t.Errorf("post-fallback max |logit diff| = %d, want ≤ 6", d)
	}
	// The fallback adopts the client's token instead of minting a new one:
	// the session keeps its identity — and its transcript seeds — across
	// the miss, which is what makes failover onto a cold provider
	// bit-identical (see TestSessionSurvivesProviderRestart).
	if s.Token() != tokenBefore {
		t.Errorf("attach miss re-minted the token: %x -> %x", tokenBefore, s.Token())
	}
	if h.dials != 3 {
		t.Errorf("dialed %d times, want 3 (probe, fault, fallback)", h.dials)
	}
	// The fallback replays setup: two shares exchanges on this client's
	// trace (open + fallback re-open).
	if n := countSpans(tr, "exchange.shares"); n != 2 {
		t.Errorf("exchange.shares spans = %d, want 2 (fresh setup after token miss)", n)
	}
	s.Close()
	h.wg.Wait()
}

// TestSessionOverTCP runs a multi-inference session through the real
// serving stack: listener, admission, drain machinery and the dispatch
// inside ServeRegistryTCP.
func TestSessionOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked session")
	}
	m := tinyModel(nn.PoolAvg)
	x := input(64)
	cfg := testCfg()
	want, err := m.Forward(x, nn.ForwardOptions{Mode: nn.Ring, Carrier: ring.New(20)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, done := serveOnce(t, ctx, cfg, m, 1, nil)
	dial := func(ctx context.Context) (transport.Conn, error) {
		return transport.DialContext(ctx, addr, 5*time.Second)
	}
	s, err := NewClient(dial, cfg).OpenSession(ctx, m)
	if err != nil {
		t.Fatalf("OpenSession over TCP: %v", err)
	}
	var online []transport.Stats
	for i := 0; i < 3; i++ {
		res, err := s.Infer(ctx, x)
		if err != nil {
			t.Fatalf("inference %d: %v", i, err)
		}
		if d := maxAbsDiff(res.Logits, want); d > 6 {
			t.Errorf("inference %d: max |logit diff| = %d, want ≤ 6", i, d)
		}
		online = append(online, res.Online)
	}
	for i := 1; i < len(online); i++ {
		if online[i] != online[0] {
			t.Errorf("inference %d online %+v, want byte-identical to inference 0 %+v", i, online[i], online[0])
		}
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := <-done; err != nil {
		t.Errorf("serve loop returned %v, want nil", err)
	}
}

// TestServeRegistryTCPMultiModel serves two models from one registry,
// mixes a long-lived session with a session of one, then hot-removes a
// model and checks the typed handshake failure while the surviving
// session keeps streaming.
func TestServeRegistryTCPMultiModel(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked sessions")
	}
	mA := tinyModel(nn.PoolAvg)
	mB := tinyModel(nn.PoolMax)
	if mA.Fingerprint() == mB.Fingerprint() {
		t.Fatal("test models share a fingerprint")
	}
	x := input(64)
	cfg := testCfg()
	wantA, err := mA.Forward(x, nn.ForwardOptions{Mode: nn.Ring, Carrier: ring.New(20)})
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := mB.Forward(x, nn.ForwardOptions{Mode: nn.Ring, Carrier: ring.New(20)})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add(mA); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(mB); err != nil {
		t.Fatal(err)
	}
	l, err := transport.NewListener("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- ServeRegistryTCP(ctx, l, reg, cfg, 0, nil) }()
	dial := func(ctx context.Context) (transport.Conn, error) {
		return transport.DialContext(ctx, l.Addr(), 5*time.Second)
	}
	c := NewClient(dial, cfg)

	sA, err := c.OpenSession(ctx, mA)
	if err != nil {
		t.Fatalf("open session for model A: %v", err)
	}
	resA, err := sA.Infer(ctx, x)
	if err != nil {
		t.Fatalf("model A inference: %v", err)
	}
	if d := maxAbsDiff(resA.Logits, wantA); d > 6 {
		t.Errorf("model A: max |logit diff| = %d, want ≤ 6", d)
	}
	// A session of one against the same serving loop, other model.
	resB, err := inferOnce(ctx, dial, mB, x, cfg)
	if err != nil {
		t.Fatalf("single inference for model B: %v", err)
	}
	if d := maxAbsDiff(resB.Logits, wantB); d > 6 {
		t.Errorf("model B: max |logit diff| = %d, want ≤ 6", d)
	}
	// Hot-remove model B: new clients get the typed mismatch...
	reg.Remove(mB)
	if _, err := c.OpenSession(ctx, mB); err == nil {
		t.Error("OpenSession for a removed model succeeded")
	} else {
		var he *HandshakeError
		if !errors.As(err, &he) || he.Field != "model fingerprint" {
			t.Errorf("removed model returned %v, want the model fingerprint HandshakeError", err)
		}
	}
	// ...while the established session on model A keeps streaming.
	if _, err := sA.Infer(ctx, x); err != nil {
		t.Errorf("model A inference after removing model B: %v", err)
	}
	if err := sA.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("ServeRegistryTCP returned %v, want nil on cancel", err)
	}
}

// TestRegistryParkedLifecycle covers the parked-session cache in
// isolation: LRU eviction past the capacity, single-claim take, TTL
// expiry through an injected clock, Remove dropping a model's parked
// state, and the disabled (negative-capacity) mode.
func TestRegistryParkedLifecycle(t *testing.T) {
	m := tinyModel(nn.PoolAvg)
	st := &sessionState{model: m, r: ring.New(20)}
	now := time.Unix(1000, 0)
	reg := NewRegistry()
	reg.now = func() time.Time { return now }
	if err := reg.Add(m); err != nil {
		t.Fatal(err)
	}
	reg.setCap(2)

	t1, t2, t3 := reg.nextToken(), reg.nextToken(), reg.nextToken()
	if t1 == t2 || t2 == t3 || t1 == t3 {
		t.Fatalf("tokens collide: %x %x %x", t1, t2, t3)
	}
	reg.park(t1, st)
	reg.park(t2, st)
	reg.park(t3, st) // capacity 2: t1 (oldest) must go
	if _, ok := reg.take(t1); ok {
		t.Error("evicted session t1 still resumable")
	}
	if _, ok := reg.take(t2); !ok {
		t.Error("parked session t2 not resumable")
	}
	if _, ok := reg.take(t2); ok {
		t.Error("taken session t2 claimed twice")
	}

	// TTL: t3 is still parked; advance past the deadline.
	now = now.Add(sessionTTL + time.Second)
	if _, ok := reg.take(t3); ok {
		t.Error("expired session t3 still resumable")
	}

	// Remove drops a model's parked sessions.
	t4 := reg.nextToken()
	reg.park(t4, st)
	reg.Remove(m)
	if _, ok := reg.take(t4); ok {
		t.Error("removed model's parked session still resumable")
	}

	// Negative capacity disables parking entirely.
	reg.setCap(-1)
	t5 := reg.nextToken()
	reg.park(t5, st)
	if _, ok := reg.take(t5); ok {
		t.Error("disabled cache still parked a session")
	}
}

// TestRegistryAddReplaceInvalidatesSplit: re-adding a model under the
// same fingerprint (fresh weights, same architecture) must drop the
// cached split.
func TestRegistryAddReplaceInvalidatesSplit(t *testing.T) {
	m := tinyModel(nn.PoolAvg)
	reg := NewRegistry()
	if err := reg.Add(m); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.sharesFor(m, ring.New(20), 4); err != nil {
		t.Fatal(err)
	}
	reg.mu.Lock()
	cached := len(reg.shares)
	reg.mu.Unlock()
	if cached != 1 {
		t.Fatalf("cached %d splits, want 1", cached)
	}
	if err := reg.Add(m); err != nil {
		t.Fatal(err)
	}
	reg.mu.Lock()
	cached = len(reg.shares)
	reg.mu.Unlock()
	if cached != 0 {
		t.Errorf("replacing a model left %d cached splits, want 0", cached)
	}
}
