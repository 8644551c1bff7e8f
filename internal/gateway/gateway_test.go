package gateway

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"aq2pnn/internal/engine"
	"aq2pnn/internal/nn"
	"aq2pnn/internal/ot"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/testutil"
	"aq2pnn/internal/transport"
)

// fleetCfg is the engine configuration shared by every backend and
// client in these tests: small carrier, fast demo OT group, and one
// seed — the fleet invariant the gateway documents (any backend can
// serve any session bit-identically).
func fleetCfg() engine.Options {
	return engine.Options{CarrierBits: 20, Seed: 4, Group: ot.TestGroup()}
}

func testModel(t *testing.T) *nn.Model {
	t.Helper()
	m, err := nn.ByName("micro", nn.ZooConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testInput(m *nn.Model) []int64 {
	x := make([]int64, m.InputShape().Numel())
	for i := range x {
		x[i] = int64((i*13)%23) - 11
	}
	return x
}

// fleetBackend is one in-process provider "process": its own listener,
// its own fresh Registry, and a process-level fault
// injector wrapping every connection it accepts.
type fleetBackend struct {
	name   string
	lis    *transport.Listener
	faults *transport.Faults
	cancel context.CancelFunc
	done   chan error
}

func startBackend(t *testing.T, name string, m *nn.Model, cfg engine.Options, plan transport.FaultPlan) *fleetBackend {
	t.Helper()
	l, err := transport.NewListener("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fb := &fleetBackend{name: name, lis: l}
	// Death closes the listener too, so post-crash dials fail at the TCP
	// layer the way they would against a truly dead process.
	fb.faults = transport.NewFaults(plan, func() { l.Close() })
	l.SetConnWrap(fb.faults.Wrap)
	ctx, cancel := context.WithCancel(context.Background())
	fb.cancel = cancel
	fb.done = make(chan error, 1)
	reg := engine.NewRegistry()
	if err := reg.Add(m); err != nil {
		t.Fatal(err)
	}
	go func() { fb.done <- engine.ServeRegistryTCP(ctx, l, reg, cfg, 0, nil) }()
	t.Cleanup(func() { l.Close() })
	return fb
}

// fleet is N backends behind one gateway.
type fleet struct {
	t        *testing.T
	backends []*fleetBackend
	gw       *Gateway
	addr     string
	cancel   context.CancelFunc
	done     chan error
	stopped  bool
}

// startFleet boots len(plans) backends (each with its fault plan) and a
// gateway over them. mut, when non-nil, adjusts the gateway config
// before it is built.
func startFleet(t *testing.T, m *nn.Model, cfg engine.Options, plans []transport.FaultPlan, mut func(*Config)) *fleet {
	t.Helper()
	f := &fleet{t: t}
	bks := make([]Backend, 0, len(plans))
	for i, plan := range plans {
		fb := startBackend(t, fmt.Sprintf("b%d", i), m, cfg, plan)
		f.backends = append(f.backends, fb)
		bks = append(bks, Backend{Name: fb.name, Addr: fb.lis.Addr()})
	}
	gcfg := Config{
		Backends: bks,
		Seed:     7,
		// Passive scoring only: active probes would re-close a breaker on
		// their own clock and make the sweep timing-dependent.
		ProbeInterval: -1,
		DialTimeout:   500 * time.Millisecond,
		FailThreshold: 1,
		// A cooldown longer than any test keeps a tripped victim out of
		// rotation for the rest of the run — deterministic failover.
		Cooldown: transport.Backoff{Base: 30 * time.Second, Max: 30 * time.Second},
	}
	if mut != nil {
		mut(&gcfg)
	}
	gw, err := New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	f.gw = gw
	gl, err := transport.NewListener("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f.addr = gl.Addr()
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.done = make(chan error, 1)
	go func() { f.done <- gw.Serve(ctx, gl) }()
	// stop() first: Serve must see its context cancelled before the
	// listener closes, or the accept error masks a clean shutdown.
	t.Cleanup(func() { f.stop(); gl.Close() })
	return f
}

func (f *fleet) dial(ctx context.Context) (transport.Conn, error) {
	return transport.DialContext(ctx, f.addr, 5*time.Second)
}

// stop tears the whole fleet down. Order matters: injectors are killed
// FIRST — operations parked inside a stall window only release when
// their process severs, so cancelling serve contexts before Kill would
// deadlock the joins behind a frame that never unblocks.
func (f *fleet) stop() {
	if f.stopped {
		return
	}
	f.stopped = true
	for _, b := range f.backends {
		b.faults.Kill()
	}
	f.cancel()
	if err := <-f.done; err != nil {
		f.t.Errorf("gateway serve returned %v, want nil", err)
	}
	for _, b := range f.backends {
		b.cancel()
		// A faulted backend's serve loop reports its severed sessions (and
		// the closed listener) as errors — that is the scenario, not a
		// harness failure, so the result is drained, not asserted.
		<-b.done
	}
}

func sameLogits(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGatewayProxiesSession runs a full persistent session through the
// gateway and checks the logits against the plaintext reference — the
// splice must be invisible to the protocol.
func TestGatewayProxiesSession(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked fleet")
	}
	m := testModel(t)
	x := testInput(m)
	cfg := fleetCfg()
	never := transport.FaultPlan{FailAfter: -1}
	f := startFleet(t, m, cfg, []transport.FaultPlan{never, never, never}, nil)
	ctx := context.Background()

	want, err := m.Forward(x, nn.ForwardOptions{Mode: nn.Ring, Carrier: ring.New(cfg.CarrierBits)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := engine.NewClient(f.dial, cfg).OpenSession(ctx, m)
	if err != nil {
		t.Fatalf("open through gateway: %v", err)
	}
	if s.Token() == (engine.SessionToken{}) {
		t.Fatal("session carries the zero token — gateway minting did not reach the client")
	}
	for i := 0; i < 2; i++ {
		res, err := s.Infer(ctx, x)
		if err != nil {
			t.Fatalf("inference %d: %v", i, err)
		}
		// The ±1-LSB faithful-truncation noise feeds micro's fully
		// connected fan-in, so the plaintext bound is looser than the
		// engine's tinyModel one; exactness is asserted elsewhere by the
		// chaos sweep's bit-identity check against a secure reference.
		if d := maxAbsDiff(res.Logits, want); d > 32 {
			t.Fatalf("inference %d diverges from plaintext by %d", i, d)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	f.stop()
	st := f.gw.Stats()
	if st.Sessions == 0 {
		t.Error("no sessions counted")
	}
	if st.Reroutes != 0 || st.Shed != 0 || st.BackendFailures != 0 {
		t.Errorf("healthy run recorded failures: %+v", st)
	}
}

func maxAbsDiff(a, b []int64) int64 {
	var m int64
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// TestGatewayShedsAtMaxSessions: with the admission cap full, the next
// client gets the protocol's busy-reject — the same transient signal an
// overloaded backend sends.
func TestGatewayShedsAtMaxSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked fleet")
	}
	m := testModel(t)
	cfg := fleetCfg()
	never := transport.FaultPlan{FailAfter: -1}
	f := startFleet(t, m, cfg, []transport.FaultPlan{never}, func(c *Config) { c.MaxSessions = 1 })
	ctx := context.Background()

	s, err := engine.NewClient(f.dial, cfg).OpenSession(ctx, m)
	if err != nil {
		t.Fatalf("first session: %v", err)
	}
	defer s.Close()
	_, err = engine.NewClient(f.dial, cfg).OpenSession(ctx, m) // Retries 0: no backoff loop
	if !errors.Is(err, transport.ErrServerBusy) {
		t.Fatalf("second session got %v, want ErrServerBusy", err)
	}
	if st := f.gw.Stats(); st.Shed == 0 {
		t.Errorf("shed not counted: %+v", st)
	}
}

// TestGatewayRejectsGarbageIntake: a peer that cannot produce a valid
// session hello is dropped at intake, before any backend is dialed.
func TestGatewayRejectsGarbageIntake(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked fleet")
	}
	telemetry.Enable()
	m := testModel(t)
	cfg := fleetCfg()
	never := transport.FaultPlan{FailAfter: -1}
	f := startFleet(t, m, cfg, []transport.FaultPlan{never}, nil)
	ctx := context.Background()

	// A well-formed user hello for the served model that does not request
	// a session: the retired one-inference-per-connection flow.
	noSession := make([]byte, 20)
	copy(noSession, "AQ2S")
	binary.LittleEndian.PutUint16(noSession[4:], engine.ProtocolVersion)
	noSession[6] = engine.RoleUser
	binary.LittleEndian.PutUint16(noSession[8:], uint16(cfg.CarrierBits))
	binary.LittleEndian.PutUint64(noSession[12:], m.Fingerprint())

	rejects := telemetry.Default().Counter("aq2pnn_gateway_intake_rejects_total")
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"garbage", []byte("this is not a hello")},
		{"hello without the session flag", noSession},
	} {
		before := rejects.Value()
		c, err := f.dial(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Send(tc.frame); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Recv(); err == nil {
			t.Errorf("%s: gateway answered instead of dropping the connection", tc.name)
		}
		c.Close()
		if got := rejects.Value() - before; got != 1 {
			t.Errorf("%s: aq2pnn_gateway_intake_rejects_total rose by %d, want 1", tc.name, got)
		}
	}
	if ops := f.backends[0].faults.Ops(); ops != 0 {
		t.Errorf("backend saw %d operations from rejected intakes, want 0", ops)
	}
	if h := f.gw.Health(); h["b0"] != "closed" {
		t.Errorf("intake garbage scored against a backend: health %v", h)
	}
}

// TestGatewayShutdownIsNoBackendFailure: a splice the gateway severs on
// its own shutdown is not scored against the backend, even with a client
// request still unanswered: a healthy session can be cut with its end
// frame still unread.
func TestGatewayShutdownIsNoBackendFailure(t *testing.T) {
	// The backend reads the hello, the attach and one request, then waits
	// for more without answering.
	bl, err := transport.NewListener("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bl.Close()
	request := make(chan struct{})
	go func() {
		c, err := bl.Accept(context.Background())
		if err != nil {
			return
		}
		defer c.Close()
		for i := 0; i < 3; i++ {
			if _, err := c.Recv(); err != nil {
				return
			}
		}
		close(request)
		//lint:allow sendcheck parks until the gateway severs the splice; the error is the expected end
		c.Recv()
	}()
	gw, err := New(Config{Backends: []Backend{{Name: "b0", Addr: bl.Addr()}}, Seed: 7, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	gl, err := transport.NewListener("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- gw.Serve(ctx, gl) }()

	c, err := transport.DialContext(context.Background(), gl.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hello := make([]byte, 20)
	copy(hello, "AQ2S")
	binary.LittleEndian.PutUint16(hello[4:], engine.ProtocolVersion)
	hello[6] = engine.RoleUser
	hello[7] = 1 << 3 // the session flag
	binary.LittleEndian.PutUint16(hello[8:], 16)
	for _, f := range [][]byte{hello, engine.EncodeAttachRequest(false, engine.SessionToken{}), []byte("request")} {
		if err := c.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-request:
	case <-time.After(10 * time.Second):
		t.Fatal("the request never reached the backend")
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("gateway serve returned %v, want nil", err)
	}
	if st := gw.Stats(); st.BackendFailures != 0 || st.Reroutes != 0 || st.Shed != 0 {
		t.Errorf("shutdown scored against the backend: %+v", st)
	}
	if h := gw.Health(); h["b0"] != "closed" {
		t.Errorf("shutdown tripped the backend's breaker: health %v", h)
	}
}

// TestGatewayGoroutineHygiene: a fleet spun up and torn down leaks
// nothing.
func TestGatewayGoroutineHygiene(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked fleet")
	}
	base := runtime.NumGoroutine()
	m := testModel(t)
	cfg := fleetCfg()
	never := transport.FaultPlan{FailAfter: -1}
	f := startFleet(t, m, cfg, []transport.FaultPlan{never, never}, nil)
	ctx := context.Background()
	s, err := engine.NewClient(f.dial, cfg).OpenSession(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Infer(ctx, testInput(m)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	f.stop()
	testutil.CheckGoroutines(t, base)
}
