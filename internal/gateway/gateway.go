// Package gateway is the self-healing sharded front tier: a TCP proxy
// that spreads AQ2PNN sessions across a fleet of provider backends and
// keeps them alive through individual backend failure.
//
// The gateway terminates no protocol state. It peeks a connecting
// client's hello (model fingerprint, session flag) and attach request —
// all public routing metadata; no share material is ever inspected —
// picks a backend by consistent hashing on (fingerprint, resumption
// token), and splices raw frames between client and backend until either
// side finishes. Re-attaches hash to the same key, so a resuming client
// lands on the backend that parked its state; when that backend is dead
// the hash ring walks to the next healthy one and the provider's
// token-adoption fallback (see engine.PeekAttachRequest) rebuilds the
// session there with a bit-identical transcript.
//
// Health is tracked two ways and fed into a per-backend circuit breaker
// (closed → open → half-open, cooldown from transport.Backoff with full
// jitter so a reopening fleet does not stampede): passively, every
// proxied session scores its backend by how it ended; actively, a prober
// checks each backend every ProbeInterval — an HTTP /metrics probe when
// the backend exposes one, a TCP connect probe otherwise — so a dead
// backend is discovered before a client has to trip over it. Overload
// sheds through the protocol's own AQ2B busy-reject: per backend when it
// sheds under its admission cap, and globally when the gateway's
// MaxSessions cap or an empty eligible set leaves nowhere to route —
// clients classify both as transient and back off.
//
// See docs/robustness.md for the threat model and the failover state
// machine.
package gateway

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aq2pnn/internal/engine"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
)

// Backend names one provider process in the fleet.
type Backend struct {
	// Name identifies the backend in health snapshots and telemetry; it
	// defaults to Addr.
	Name string
	// Addr is the backend's serving address (ServeRegistryTCP listener).
	Addr string
	// MetricsAddr, when non-empty, is the backend's telemetry endpoint;
	// the active prober GETs /metrics there. Empty falls back to a TCP
	// connect probe against Addr.
	MetricsAddr string
}

// Config assembles a Gateway. Zero values get production defaults.
type Config struct {
	// Backends is the provider fleet; at least one is required. Every
	// backend must run with the same engine seed and model registry —
	// routing assumes any backend can serve any session.
	Backends []Backend
	// Seed drives the gateway's deterministic choices (minted tokens,
	// breaker jitter). Gateways with different seeds desynchronise their
	// recovery behaviour; the same seed reproduces a run exactly.
	Seed uint64
	// HandshakeTimeout bounds how long a client may take to produce its
	// hello and attach frames (default 10s; negative disables). It is the
	// gateway's slow-loris defence for the intake phase.
	HandshakeTimeout time.Duration
	// DialTimeout bounds one backend dial attempt (default 1s). Failover
	// latency is this at worst per unhealthy backend, so it is kept far
	// below the client's own patience.
	DialTimeout time.Duration
	// MaxSessions caps concurrently proxied sessions; excess connections
	// are shed with the busy-reject frame. 0 = unlimited.
	MaxSessions int
	// ProbeInterval paces the active health prober (default 1s; negative
	// disables active probing, leaving passive scoring only).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (default 1s).
	ProbeTimeout time.Duration
	// FailThreshold is how many consecutive failures trip a closed
	// breaker (default 3).
	FailThreshold int
	// Cooldown is the open-state backoff policy: attempt n of reopening a
	// persistently failing backend waits Cooldown.Delay(n). Zero value
	// defaults to {Base: 250ms, Max: 8s, FullJitter: true} — full jitter,
	// so breakers tripped by the same outage reopen spread out.
	Cooldown transport.Backoff
	// Trace, when non-nil, records a span per proxied session.
	Trace *telemetry.Tracer
}

func (c Config) handshakeTimeout() time.Duration {
	switch {
	case c.HandshakeTimeout < 0:
		return 0
	case c.HandshakeTimeout == 0:
		return 10 * time.Second
	}
	return c.HandshakeTimeout
}

func (c Config) dialTimeout() time.Duration {
	if c.DialTimeout <= 0 {
		return time.Second
	}
	return c.DialTimeout
}

func (c Config) probeTimeout() time.Duration {
	if c.ProbeTimeout <= 0 {
		return time.Second
	}
	return c.ProbeTimeout
}

func (c Config) failThreshold() int {
	if c.FailThreshold <= 0 {
		return 3
	}
	return c.FailThreshold
}

func (c Config) cooldown() transport.Backoff {
	b := c.Cooldown
	if b.Base == 0 && b.Max == 0 && !b.FullJitter {
		b = transport.Backoff{Base: 250 * time.Millisecond, Max: 8 * time.Second, FullJitter: true}
	}
	return b
}

// Stats is a snapshot of the gateway's own counters. The same figures
// are mirrored to the telemetry registry (aq2pnn_gateway_*); the
// snapshot exists so tests and the benchmark read them without scraping.
type Stats struct {
	Sessions        uint64 // sessions accepted and routed
	Shed            uint64 // sessions rejected busy (cap or no backend)
	Reroutes        uint64 // sessions routed past an ineligible/dead primary
	BackendFailures uint64 // sessions that ended in a backend-side failure
	Probes          uint64 // active probes run
	ProbeFailures   uint64 // active probes failed
}

// ErrNoBackend is returned (and a busy-reject sent) when every backend
// is ineligible — open breaker or failed dial — for a session.
var ErrNoBackend = errors.New("gateway: no eligible backend")

// Gateway proxies client sessions across the backend fleet.
type Gateway struct {
	cfg      Config
	ring     *hashRing
	backends []*backendState

	mu     sync.Mutex
	tokens uint64
	rng    *prg.PRG

	sessions        atomic.Uint64
	shed            atomic.Uint64
	reroutes        atomic.Uint64
	backendFailures atomic.Uint64
	probes          atomic.Uint64
	probeFailures   atomic.Uint64
}

// backendState is one backend plus its health machinery.
type backendState struct {
	Backend
	brk *breaker
}

// New validates cfg and assembles the gateway.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: no backends configured")
	}
	seen := map[string]bool{}
	g := &Gateway{
		cfg: cfg,
		//lint:allow detrand token-uniqueness rng; gateway-minted tokens are public routing handles, not transcript randomness (mirrors Registry.rng)
		rng: prg.NewSeeded(saltSeed(cfg.Seed, 0x6A7E_11A7_E0A7_0B05)),
	}
	names := make([]string, 0, len(cfg.Backends))
	for i, b := range cfg.Backends {
		if b.Addr == "" {
			return nil, fmt.Errorf("gateway: backend %d has no address", i)
		}
		if b.Name == "" {
			b.Name = b.Addr
		}
		if seen[b.Name] {
			return nil, fmt.Errorf("gateway: duplicate backend name %q", b.Name)
		}
		seen[b.Name] = true
		names = append(names, b.Name)
		g.backends = append(g.backends, &backendState{
			Backend: b,
			brk: &breaker{
				threshold: cfg.failThreshold(),
				cool:      cfg.cooldown(),
				seed:      saltSeed(cfg.Seed, hashString(b.Name)),
				now:       time.Now,
			},
		})
	}
	g.ring = newRing(names)
	return g, nil
}

// Serve accepts and proxies sessions until ctx is cancelled (returning
// nil) or the listener fails. The active prober runs alongside the
// accept loop; both, and every in-flight proxy, are joined before Serve
// returns.
func (g *Gateway) Serve(ctx context.Context, l *transport.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	if iv := g.cfg.ProbeInterval; iv >= 0 {
		if iv == 0 {
			iv = time.Second
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.probeLoop(ctx, iv)
		}()
	}
	var admit chan struct{}
	if g.cfg.MaxSessions > 0 {
		admit = make(chan struct{}, g.cfg.MaxSessions)
	}
	for {
		conn, err := l.Accept(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		if admit != nil {
			select {
			case admit <- struct{}{}:
			default:
				g.shedConn(conn)
				continue
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if admit != nil {
					<-admit
				}
			}()
			g.proxy(ctx, conn)
		}()
	}
}

// shedConn rejects a connection over the gateway's admission cap with
// the protocol's busy frame — the same signal an overloaded backend
// sends, so clients back off identically.
func (g *Gateway) shedConn(conn transport.Conn) {
	defer conn.Close()
	g.shed.Add(1)
	telemetry.Count("aq2pnn_gateway_sessions_shed_total", 1)
	//lint:allow sendcheck best-effort busy reject; a client that already hung up simply misses it
	_ = conn.Send(engine.BusyRejectFrame())
}

// Stats snapshots the gateway counters.
func (g *Gateway) Stats() Stats {
	return Stats{
		Sessions:        g.sessions.Load(),
		Shed:            g.shed.Load(),
		Reroutes:        g.reroutes.Load(),
		BackendFailures: g.backendFailures.Load(),
		Probes:          g.probes.Load(),
		ProbeFailures:   g.probeFailures.Load(),
	}
}

// Health reports each backend's breaker state ("closed", "open",
// "half-open") keyed by backend name.
func (g *Gateway) Health() map[string]string {
	h := make(map[string]string, len(g.backends))
	for _, b := range g.backends {
		h[b.Name] = b.brk.describe()
	}
	return h
}

// mintToken issues a fresh session token for a client opening a new
// session: the gateway rewrites the attach so the token — and with it
// the routing key — exists before any backend is involved, which is what
// keeps re-attaches routable after the owning backend dies. Tokens mix a
// monotonic counter (uniqueness) with PRG output (decorrelation across
// gateways sharing a seed by accident).
func (g *Gateway) mintToken() engine.SessionToken {
	g.mu.Lock()
	g.tokens++
	ctr := g.tokens
	word := g.rng.Uint64()
	g.mu.Unlock()
	var t engine.SessionToken
	binary.LittleEndian.PutUint64(t[:8], mix64(ctr^0x6A7E_70C3_77A1_75EB))
	binary.LittleEndian.PutUint64(t[8:], word)
	return t
}

// routeKey folds the routing identity — model fingerprint and session
// token — into the consistent-hash key.
func routeKey(fp uint64, token engine.SessionToken) uint64 {
	lo := binary.LittleEndian.Uint64(token[:8])
	hi := binary.LittleEndian.Uint64(token[8:])
	return mix64(fp ^ mix64(lo^mix64(hi)))
}
