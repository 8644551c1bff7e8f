package gateway

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"time"

	"aq2pnn/internal/engine"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
)

// Frame-level session proxying. The client pipelines its hello and
// attach request before waiting for answers — see Session.establish — so
// the intake here reads the full routing identity without speaking for
// any backend. Everything after intake is a blind
// splice: the gateway never decodes another frame beyond cheap
// end/busy-frame classification for health scoring.

// directions for lastDir: who moved a frame most recently.
const (
	dirNone           = 0
	dirClientToServer = 1
	dirServerToClient = 2
)

// proxy serves one accepted client connection end to end.
func (g *Gateway) proxy(ctx context.Context, client transport.Conn) {
	defer client.Close()
	in, err := g.intake(client)
	if err != nil {
		// Intake failures (malformed hello, role abuse, handshake
		// timeout) are the client's problem, not a backend's.
		telemetry.Count("aq2pnn_gateway_intake_rejects_total", 1)
		return
	}
	g.sessions.Add(1)
	telemetry.Count("aq2pnn_gateway_sessions_total", 1)

	owners := g.ring.owners(in.key)
	var chosen *backendState
	var bconn transport.Conn
	for i, idx := range owners {
		b := g.backends[idx]
		if !b.brk.allow() {
			continue
		}
		c, err := g.dialBackend(ctx, b)
		if err != nil {
			b.brk.failure()
			g.backendFailures.Add(1)
			telemetry.Count("aq2pnn_gateway_backend_failures_total", 1)
			continue
		}
		if i > 0 {
			// The session's owner was unavailable: it runs on a failover
			// backend, where a resume token will miss and rebuild via the
			// provider's token-adoption fallback.
			g.reroutes.Add(1)
			telemetry.Count("aq2pnn_gateway_reroutes_total", 1)
		}
		chosen, bconn = b, c
		break
	}
	if chosen == nil {
		g.shed.Add(1)
		telemetry.Count("aq2pnn_gateway_sessions_shed_total", 1)
		//lint:allow sendcheck best-effort busy reject; the client's retry loop handles silence the same way
		_ = client.Send(engine.BusyRejectFrame())
		return
	}
	defer bconn.Close()

	sp := g.cfg.Trace.Root("gateway.session",
		telemetry.WithConn(client),
		telemetry.WithAttrs(
			telemetry.String("backend", chosen.Name),
			telemetry.Int("model", int64(in.hello.Model)),
		))
	defer sp.End()

	err = bconn.Send(in.helloFrame)
	if err == nil {
		err = bconn.Send(in.attachFrame)
	}
	if err != nil {
		chosen.brk.failure()
		g.backendFailures.Add(1)
		telemetry.Count("aq2pnn_gateway_backend_failures_total", 1)
		return
	}
	res := splice(client, bconn)
	// Scoring. A clean end (client's end frame) or a backend-issued busy
	// reject is healthy routing. Otherwise the backend is at fault only
	// when a client request went unanswered (last frame moved
	// client→server — the stalled-backend signature) or undeliverable (the forward to the backend failed with a request
	// in hand). A backend that breaks while idle between requests stays
	// neutral: the next session, or the active prober, will convict it
	// without passive scoring misfiring on ordinary close races.
	switch {
	case res.sawEnd || res.sawBusy:
		chosen.brk.success()
	case res.sendFailed || res.lastDir == dirClientToServer:
		chosen.brk.failure()
		g.backendFailures.Add(1)
		telemetry.Count("aq2pnn_gateway_backend_failures_total", 1)
	default:
		// Client-side failure with no outstanding request: neutral.
	}
}

// intakeResult is the routing identity read (and possibly rewritten)
// from the client's opening frames.
type intakeResult struct {
	hello       engine.HelloInfo
	helloFrame  []byte
	attachFrame []byte
	key         uint64
}

// intake reads the client's hello and attach request under the handshake
// deadline, minting and splicing in a gateway token on fresh opens so the
// routing key is fixed for the session's whole life.
func (g *Gateway) intake(client transport.Conn) (intakeResult, error) {
	var in intakeResult
	if to := g.cfg.handshakeTimeout(); to > 0 && transport.SetRecvDeadline(client, time.Now().Add(to)) {
		defer transport.SetRecvDeadline(client, time.Time{})
	}
	helloFrame, err := client.Recv()
	if err != nil {
		return in, err
	}
	hi, err := engine.PeekHello(helloFrame)
	if err != nil {
		return in, err
	}
	if hi.Role != engine.RoleUser {
		// Only user-role clients connect through the front tier; a
		// provider hello here is a misconfigured (or probing) peer.
		return in, errors.New("gateway: non-user hello")
	}
	attachFrame, err := client.Recv()
	if err != nil {
		return in, err
	}
	resume, token, err := engine.PeekAttachRequest(attachFrame)
	if err != nil {
		return in, err
	}
	if !resume && token == (engine.SessionToken{}) {
		// Fresh open: mint the token here and rewrite the attach into a
		// resume. The backend's attach miss adopts it (fresh setup, same
		// token), and every later re-attach — including after that
		// backend dies — hashes to the same key.
		token = g.mintToken()
		attachFrame = engine.EncodeAttachRequest(true, token)
	}
	return intakeResult{hello: hi, helloFrame: helloFrame, attachFrame: attachFrame, key: routeKey(hi.Model, token)}, nil
}

// dialBackend makes a single bounded dial attempt — no retry loop:
// failover to the next ring owner IS the retry, and it must be fast.
func (g *Gateway) dialBackend(ctx context.Context, b *backendState) (transport.Conn, error) {
	dctx, cancel := context.WithTimeout(ctx, g.cfg.dialTimeout())
	defer cancel()
	var d net.Dialer
	c, err := d.DialContext(dctx, "tcp", b.Addr)
	if err != nil {
		return nil, err
	}
	// Bind to the serve context, not the dial timeout: cancellation of
	// the gateway severs the backend side of every splice.
	return transport.WithContext(ctx, transport.NewNetConn(c)), nil
}

// spliceResult is how a proxied session ended.
type spliceResult struct {
	sawEnd     bool  // client sent the session end frame
	sawBusy    bool  // backend's first answer was a busy reject
	sendFailed bool  // a client request could not be forwarded to the backend
	lastDir    int32 // direction of the last successfully moved frame
}

// splice pumps frames in both directions until either side fails, then
// closes both so the opposite pump unblocks, and joins them. Per-stream
// framing is preserved exactly — under the preprocessing mux the 1-byte
// stream prefixes ride along untouched.
func splice(client, backend transport.Conn) spliceResult {
	var sawEnd, sawBusy, sendFailed atomic.Bool
	var lastDir atomic.Int32
	broke := make(chan struct{}, 2)
	go func() {
		for {
			p, err := client.Recv()
			if err != nil {
				broke <- struct{}{}
				return
			}
			if engine.IsEndFrame(p) {
				sawEnd.Store(true)
			}
			if err := backend.Send(p); err != nil {
				sendFailed.Store(true)
				broke <- struct{}{}
				return
			}
			lastDir.Store(dirClientToServer)
		}
	}()
	go func() {
		first := true
		for {
			p, err := backend.Recv()
			if err != nil {
				broke <- struct{}{}
				return
			}
			if first && engine.IsBusyFrame(p) {
				sawBusy.Store(true)
			}
			first = false
			if err := client.Send(p); err != nil {
				broke <- struct{}{}
				return
			}
			lastDir.Store(dirServerToClient)
		}
	}()
	<-broke
	client.Close()
	backend.Close()
	<-broke
	return spliceResult{
		sawEnd:     sawEnd.Load(),
		sawBusy:    sawBusy.Load(),
		sendFailed: sendFailed.Load(),
		lastDir:    lastDir.Load(),
	}
}
