package aq2pnn

import (
	"context"
	"fmt"
	"time"

	"aq2pnn/internal/engine"
	"aq2pnn/internal/nn"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
)

// SessionToken identifies a provider-side persistent session for
// re-attachment after a transport fault. It is an opaque capability in the
// semi-honest model: uniqueness matters, secrecy does not.
type SessionToken = engine.SessionToken

// Client is the user-side entry to persistent secure-inference sessions
// against one provider address. It holds configuration, not a connection
// — sessions dial (and re-dial after faults) on their own — so a single
// Client may open any number of concurrent sessions.
//
//	c := aq2pnn.Dial("provider:9000", cfg)
//	s, err := c.OpenSession(ctx, model)
//	defer s.Close()
//	res, err := s.Infer(ctx, x) // online traffic only, setup paid at open
type Client struct {
	c   *engine.Client
	cfg InferenceConfig
}

// Dial returns a client for the provider at addr. No connection is made
// yet: each OpenSession dials lazily, retrying the dial for
// cfg.DialTimeout (10 s when zero) so the two processes may start in
// either order. Both sides must agree on the model architecture, carrier
// width and seed — a disagreement fails the session handshake with the
// same typed HandshakeError on both processes.
func Dial(addr string, cfg InferenceConfig) *Client {
	timeout := cfg.DialTimeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	dial := func(ctx context.Context) (transport.Conn, error) {
		return transport.DialContext(ctx, addr, timeout)
	}
	return &Client{c: engine.NewClient(dial, networkConfig(cfg)), cfg: cfg}
}

// OpenSession establishes a persistent session for the model: handshake,
// weight-share exchange and triple-family preparation happen once, here;
// every subsequent Session.Infer costs only that inference's online
// traffic. Transient failures are retried per cfg.Retries.
func (c *Client) OpenSession(ctx context.Context, m *Model) (*Session, error) {
	s, err := c.c.OpenSession(ctx, m)
	if err != nil {
		return nil, err
	}
	return &Session{s: s, cfg: c.cfg}, nil
}

// Session is one persistent inference session. Setup is paid at open; any
// number of Infer calls stream over the prepared state. A transport fault
// mid-stream re-dials and re-attaches through the session's resumption
// token: the provider restores its parked state and the interrupted
// inference is replayed bit-identically, with no setup traffic. A Session
// is not safe for concurrent use; open one per goroutine.
type Session struct {
	s   *engine.Session
	cfg InferenceConfig
}

// Infer runs one secure inference over the session. The result's Online
// stats are this inference's exact wire cost; its Setup stats are zero —
// the session's setup traffic is reported once by SetupStats.
func (s *Session) Infer(ctx context.Context, x []int64) (*InferenceResult, error) {
	res, err := s.s.Infer(ctx, x)
	if err != nil {
		return nil, err
	}
	return s.result(res), nil
}

// InferBatch streams a batch of inputs over the session, one inference
// each, stopping at the first failure (the completed prefix is returned
// alongside the error).
func (s *Session) InferBatch(ctx context.Context, xs [][]int64) ([]*InferenceResult, error) {
	rs, err := s.s.InferBatch(ctx, xs)
	out := make([]*InferenceResult, len(rs))
	for i, r := range rs {
		out[i] = s.result(r)
	}
	return out, err
}

func (s *Session) result(res *engine.Result) *InferenceResult {
	class := res.Class
	if !s.cfg.RevealClassOnly {
		class = nn.Argmax(res.Logits)
	}
	return &InferenceResult{
		Logits:      res.Logits,
		Class:       class,
		Online:      res.Online,
		PerOp:       res.PerOp,
		CarrierBits: res.Carrier.Bits,
	}
}

// SetupStats reports the session's cumulative setup traffic: the open
// (handshake, weight shares, triple preparation) plus any re-attach
// exchanges after faults. Steady-state inferences add nothing here.
func (s *Session) SetupStats() CommStats { return s.s.SetupStats() }

// Token returns the session's resumption token.
func (s *Session) Token() SessionToken { return s.s.Token() }

// Close ends the session and releases the provider's state. A cleanly
// closed session is not resumable. Closing twice is a no-op.
func (s *Session) Close() error { return s.s.Close() }

// ModelRegistry is the provider-side model set behind ServeModelsTCP:
// models keyed by architecture fingerprint, hot-addable and -removable
// while serving. Repeated sessions of one model reuse its cached weight
// split instead of re-splitting and re-encoding the weights.
type ModelRegistry struct {
	reg *engine.Registry
}

// NewModelRegistry returns an empty registry.
func NewModelRegistry() *ModelRegistry {
	return &ModelRegistry{reg: engine.NewRegistry()}
}

// Add registers (or replaces) a model. The model must carry real weights;
// replacing a model invalidates its cached weight split.
func (r *ModelRegistry) Add(m *Model) error { return r.reg.Add(m) }

// Remove unregisters a model and drops its cached split and parked
// sessions. In-flight sessions finish undisturbed; new clients asking for
// it fail their handshake with the typed model-fingerprint mismatch.
func (r *ModelRegistry) Remove(m *Model) { r.reg.Remove(m) }

// Len reports how many models are registered.
func (r *ModelRegistry) Len() int { return r.reg.Len() }

// ServeModelsTCP is the provider loop: it listens on addr and dispatches
// every connecting client against the registry by the model fingerprint in
// its hello. Each client runs one session — setup once, then a stream of
// inferences, with faulted sessions parked for token re-attachment.
// Shutdown is graceful (cfg.DrainGrace); cfg.MaxConcurrentSessions,
// cfg.IdleTimeout and cfg.MemBudget are the admission and hostile-peer
// defences; cfg.MetricsAddr stands up /metrics and /debug/pprof for the
// loop's lifetime.
func ServeModelsTCP(ctx context.Context, addr string, reg *ModelRegistry, cfg InferenceConfig) error {
	l, err := transport.NewListener(addr)
	if err != nil {
		return err
	}
	defer l.Close()
	if cfg.MetricsAddr != "" {
		telemetry.Enable()
		_, stop, err := telemetry.StartMetricsServer(cfg.MetricsAddr, telemetry.Default())
		if err != nil {
			return fmt.Errorf("aq2pnn: metrics endpoint: %w", err)
		}
		defer stop()
	}
	return engine.ServeRegistryTCP(ctx, l, reg.reg, networkConfig(cfg), int(cfg.ServeSessions), nil)
}
