package aq2pnn

import (
	"context"
	"fmt"
	"time"

	"aq2pnn/internal/engine"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
)

type (
	// SessionToken identifies a provider-side persistent session for
	// re-attachment after a transport fault. It is an opaque capability in
	// the semi-honest model: uniqueness matters, secrecy does not.
	SessionToken = engine.SessionToken
	// Client is the user-side entry to persistent secure-inference
	// sessions against one provider address:
	//
	//	c := aq2pnn.Dial("provider:9000", cfg)
	//	s, err := c.OpenSession(ctx, model)
	//	defer s.Close()
	//	res, err := s.Infer(ctx, x) // online traffic only, setup paid at open
	Client = engine.Client
	// Session is one persistent inference session: setup paid at open, any
	// number of Infer calls streaming over the prepared state.
	Session = engine.Session
	// ModelRegistry is the provider-side model set behind ServeModelsTCP:
	// models keyed by architecture fingerprint, hot-addable and -removable
	// while serving, with each model's weight split cached across sessions.
	ModelRegistry = engine.Registry
)

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
	return engine.NewClient(dial, cfg.options())
}

// NewModelRegistry returns an empty registry.
func NewModelRegistry() *ModelRegistry { return engine.NewRegistry() }

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
	return engine.ServeRegistryTCP(ctx, l, reg, cfg.options(), int(cfg.ServeSessions), nil)
}
