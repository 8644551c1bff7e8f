package engine

import (
	"fmt"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/preproc"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
)

// provideConn serves one accepted connection. The provider receives the
// client's hello first — it names the model, so the provider cannot
// assemble its own hello before reading it — then answers with its view,
// settles the attach exchange and runs the session. Two flags are adopted
// from the client rather than checked: class-only reveal (what the user
// learns is the user's knob) and the preprocessing plane. flagSession is
// asserted, not adopted: a client that does not request the session flow
// fails the flags check with the same typed *HandshakeError on both ends.
func provideConn(conn transport.Conn, reg *Registry, cfg Options) error {
	disarm := armHandshake(conn, cfg)
	p, err := recvHandshake(conn, "hello")
	if err != nil {
		return err
	}
	peer, err := decodeHello(p)
	if err != nil {
		return err
	}
	m := reg.Lookup(peer.Model)
	scfg := cfg
	scfg.RevealClassOnly = peer.Flags&flagClassOnly != 0
	var mine sessionHello
	var r ring.Ring
	if m != nil {
		if r, err = scfg.Carrier(m); err != nil {
			return err
		}
		mine = helloFor(roleProvider, m, r, scfg)
		mine.Flags |= flagSession | peer.Flags&flagPreproc
	} else {
		// Unknown model: answer with the peer's own parameters under a
		// zero fingerprint, so the client fails with the same typed
		// "model fingerprint" mismatch instead of hanging or seeing a
		// spurious secondary mismatch.
		mine = peer
		mine.Role = roleProvider
		mine.Model = 0
	}
	if err := conn.Send(mine.encode()); err != nil {
		return fmt.Errorf("engine: sending session hello: %w", err)
	}
	if m == nil {
		return &HandshakeError{Field: "model fingerprint", Local: 0, Peer: peer.Model}
	}
	if err := checkHello(mine, peer); err != nil {
		return err
	}
	frame, err := recvHandshake(conn, "attach")
	if err != nil {
		return err
	}
	req, err := decodeAttach(attachReqMagic, frame)
	if err != nil {
		return err
	}
	token, st := attachState(reg, req, m, r)
	if err := conn.Send(encodeAttach(attachRespMagic, attachFrame{flag: st != nil, token: token})); err != nil {
		return fmt.Errorf("engine: sending session attach: %w", err)
	}
	disarm()
	return provideSession(conn, reg, m, r, scfg, peer.Flags&flagPreproc != 0, token, st)
}

// attachState resolves an attach request to the session's token and, when
// the request re-attaches a parked session of this model and carrier, its
// prepared state (nil means a fresh setup follows).
func attachState(reg *Registry, req attachFrame, m *nn.Model, r ring.Ring) (SessionToken, *sessionState) {
	if req.flag {
		if parked, ok := reg.take(req.token); ok && parked.model == m && parked.r == r {
			return req.token, parked
		}
		if req.token != (SessionToken{}) {
			// The resume missed: expired, evicted, a provider restart, or —
			// behind a gateway — a failover onto a backend that never held
			// the state. Adopt the client's token instead of minting: every
			// session seed derives from (Seed, token), so the fresh setup
			// reproduces exactly the transcript the original session ran,
			// which is what makes a failed-over inference bit-identical
			// (faithful truncation's ±1 LSB depends on the concrete share
			// values, hence on the B-mask stream, hence on the token).
			// Uniqueness is preserved — the token was minted by a Registry
			// or gateway in the first place; the client merely echoes it,
			// and take() above already claimed any parked state it named.
			telemetry.Count("aq2pnn_sessions_attach_miss_total", 1)
			return req.token, nil
		}
	}
	// Fresh open: mint a new token so a stale one can never alias a live
	// session.
	return reg.nextToken(), nil
}

// provideSession runs the provider half of an attached session: at most
// one setup phase (st == nil), then the steady-state loop of inference
// requests and, when the client asks before a cold inference, the main
// stream's fixed-choice set-up. On a transport fault past setup the
// prepared state is parked under the session token so the client's
// re-attach skips setup. With withPreproc (the client's flagPreproc,
// adopted) the connection is multiplexed past the attach exchange and a
// background filler serves the fill subprotocol, committing each demanded
// seq's kit to a store the warm inference requests consume from.
func provideSession(conn transport.Conn, reg *Registry, m *nn.Model, r ring.Ring, cfg Options,
	withPreproc bool, token SessionToken, st *sessionState) error {
	var pconn transport.Conn
	if withPreproc {
		// Mirror of the client's mux install point: everything past the
		// attach exchange rides the mux.
		conn, pconn = transport.NewMux(conn)
	}
	if st == nil {
		shares, err := reg.sharesFor(m, r, cfg.Seed)
		if err != nil {
			return err
		}
		st, err = openState(conn, roleProvider, cfg, m, r, token, !withPreproc, func() (*WeightShares, error) {
			if err := sendSetupBytes(conn, shares.payload); err != nil {
				return nil, fmt.Errorf("engine: sending weight shares: %w", err)
			}
			return shares.ws1, nil
		})
		if err != nil {
			return err
		}
	}
	var store *preproc.Store
	if pconn != nil {
		// The store cap is the structural bound (MaxDepth), not the
		// provider's own bank-depth knob: pacing is the client's job (its
		// bank depth), the cap only defends against a client that demands
		// without consuming.
		store = preproc.NewStore(preproc.MaxDepth)
		joinFill := startFill(pconn, roleProvider, cfg, st, func(f preproc.Filler) error { return preproc.FillProvider(f, store) })
		// Tear the whole mux down before joining the filler: a filler
		// parked mid-read on a peer that will make no more progress (fault
		// or hostile stall) is unblocked by the inner close, so the session
		// goroutine never leaks.
		defer func() {
			conn.Close()
			joinFill()
		}()
	}
	// Steady state: each inference request binds a fresh deterministic
	// context to the prepared state. The only set-up past the open is the
	// main stream's plane — one public-key set-up plus the fixed-choice
	// seed OTs, if the model has any — which the client asks for before
	// its first cold inference when the state does not hold it yet.
	for {
		seq, req, err := recvSessionReq(conn)
		if err != nil {
			if transport.IsTransient(err) {
				reg.park(token, st)
			}
			return fmt.Errorf("engine: receiving session request: %w", err)
		}
		var kit *preproc.Kit
		switch req {
		case reqEnd:
			return nil
		case reqFixed:
			// Run on every request, even with seeds in hand: a fault can
			// cut the client's set-up after this side finished, and a re-run
			// repeats the same transcript. The echo acknowledges seeds held
			// here, so the client never holds seeds this state lacks.
			err := st.openFixed(conn, roleProvider, cfg)
			if err == nil {
				err = conn.Send(encodeFixedReq())
			}
			if err != nil {
				if transport.IsTransient(err) {
					reg.park(token, st)
				}
				return err
			}
			continue
		case reqWarm:
			// The fill subprotocol's ack ordering guarantees every seq the
			// client committed is already in the store, so a warm request
			// that misses is a protocol violation, not a race.
			if store == nil {
				return sessionError(seq, fmt.Errorf("engine: warm inference request without a negotiated preprocessing plane"))
			}
			if kit = store.Take(seq); kit == nil {
				return sessionError(seq, fmt.Errorf("engine: warm inference request for unfilled seq %d", seq))
			}
		}
		_, _, err = st.inferSeq(conn, roleProvider, cfg, seq, kit, nil, func() ([]uint64, error) {
			x1, err := transport.RecvElems(conn, r, m.InputShape().Numel())
			if err != nil {
				return nil, fmt.Errorf("receiving input share: %w", err)
			}
			return x1, nil
		})
		if err != nil {
			if transport.IsTransient(err) {
				reg.park(token, st)
			}
			return err
		}
	}
}
