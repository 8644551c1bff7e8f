package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/transport"
)

func TestHelloEncodeDecodeRoundTrip(t *testing.T) {
	in := sessionHello{Version: 3, Role: roleProvider, Flags: flagLocalTrunc | flagClassOnly | flagSession | flagPreproc, Carrier: 61, Model: 0xDEADBEEFCAFE}
	out, err := decodeHello(in.encode())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip %+v != %+v", out, in)
	}
	if _, err := decodeHello([]byte("definitely not a hello frame")); err == nil {
		t.Error("garbage frame decoded as a hello")
	}
}

// checkBoth gives each party the other's hello as it arrives off the wire
// and returns both verdicts.
func checkBoth(t *testing.T, mine, theirs sessionHello) (errA, errB error) {
	t.Helper()
	fromWire := func(h sessionHello) sessionHello {
		out, err := decodeHello(h.encode())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	return checkHello(mine, fromWire(theirs)), checkHello(theirs, fromWire(mine))
}

func TestHandshakeMismatchTypedOnBothParties(t *testing.T) {
	base := func(role uint8) sessionHello {
		return sessionHello{Version: ProtocolVersion, Role: role, Carrier: 40, Model: 0x1234}
	}
	cases := []struct {
		name   string
		mutate func(*sessionHello)
		field  string
	}{
		{"version", func(h *sessionHello) { h.Version++ }, "protocol version"},
		{"role collision", func(h *sessionHello) { h.Role = roleUser }, "role"},
		{"model", func(h *sessionHello) { h.Model ^= 1 }, "model fingerprint"},
		{"carrier", func(h *sessionHello) { h.Carrier = 61 }, "carrier ring width"},
		{"flags", func(h *sessionHello) { h.Flags = flagLocalTrunc }, "protocol flags"},
		// A provider that fails to mirror the session request desynchronises
		// (one side expects the attach exchange): the client must reject it.
		// The serving path (provideConn) asserts flagSession itself, so
		// honest providers never hit this.
		{"session flag unmirrored", func(h *sessionHello) { h.Flags = flagSession }, "protocol flags"},
	}
	for _, tc := range cases {
		mine, theirs := base(roleUser), base(roleProvider)
		tc.mutate(&theirs)
		errA, errB := checkBoth(t, mine, theirs)
		for side, err := range map[string]error{"user": errA, "provider": errB} {
			var he *HandshakeError
			if !errors.As(err, &he) {
				t.Errorf("%s/%s: got %v, want *HandshakeError", tc.name, side, err)
				continue
			}
			if he.Field != tc.field {
				t.Errorf("%s/%s: field %q, want %q", tc.name, side, he.Field, tc.field)
			}
			if transport.IsTransient(err) {
				t.Errorf("%s/%s: handshake mismatch classified transient", tc.name, side)
			}
		}
	}
	if errA, errB := checkBoth(t, base(roleUser), base(roleProvider)); errA != nil || errB != nil {
		t.Errorf("matching hellos rejected: %v / %v", errA, errB)
	}
}

// TestSessionHandshakeFailsFastEndToEnd runs a client against the real
// serving loop with disagreeing configurations and checks both sides fail
// with the same typed error before any protocol material crosses —
// previously the carrier mismatch below desynchronised mid-protocol and
// surfaced as a garbled reveal or a hang. Rows with a hello mutation stand
// in for clients no current code can produce: the user side is then a
// hand-rolled open checking the provider's answer as a real client would.
func TestSessionHandshakeFailsFastEndToEnd(t *testing.T) {
	m := tinyModel(nn.PoolAvg)
	cases := []struct {
		name         string
		userCfg      Options
		providerCfg  Options
		field        string
		providerView *nn.Model
		mutateHello  func(*sessionHello)
	}{
		{
			name:        "carrier width",
			userCfg:     Options{CarrierBits: 20, Seed: 4},
			providerCfg: Options{CarrierBits: 18, Seed: 4},
			field:       "carrier ring width",
		},
		{
			name:        "truncation mode",
			userCfg:     Options{CarrierBits: 20, Seed: 4, LocalTrunc: true},
			providerCfg: Options{CarrierBits: 20, Seed: 4},
			field:       "protocol flags",
		},
		{
			name:         "model architecture",
			userCfg:      Options{CarrierBits: 20, Seed: 4},
			providerCfg:  Options{CarrierBits: 20, Seed: 4},
			field:        "model fingerprint",
			providerView: tinyModel(nn.PoolMax),
		},
		{
			// The retired one-inference-per-connection flow: a hello that
			// does not request a session.
			name:        "no session flag",
			userCfg:     Options{CarrierBits: 20, Seed: 4},
			providerCfg: Options{CarrierBits: 20, Seed: 4},
			field:       "protocol flags",
			mutateHello: func(h *sessionHello) { h.Flags &^= flagSession },
		},
		{
			// Bit 1 once disabled IKNP extension; no party sets it now.
			name:        "retired extension flag",
			userCfg:     Options{CarrierBits: 20, Seed: 4},
			providerCfg: Options{CarrierBits: 20, Seed: 4},
			field:       "protocol flags",
			mutateHello: func(h *sessionHello) { h.Flags |= 1 << 1 },
		},
	}
	for _, tc := range cases {
		pm := m
		if tc.providerView != nil {
			pm = tc.providerView
		}
		ctx, cancel := context.WithCancel(context.Background())
		addr, done := serveOnce(t, ctx, tc.providerCfg, pm, 1, nil)
		var errU error
		if tc.mutateHello == nil {
			dial := func(ctx context.Context) (transport.Conn, error) {
				return transport.DialContext(ctx, addr, 5*time.Second)
			}
			_, errU = inferOnce(ctx, dial, m, input(64), tc.userCfg)
		} else {
			conn, err := transport.Dial(addr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			h := userHello(m, tc.userCfg)
			tc.mutateHello(&h)
			errU = checkHello(h, rawOpen(t, conn, h))
			conn.Close()
		}
		errP := <-done
		cancel()
		for side, err := range map[string]error{"user": errU, "provider": errP} {
			var he *HandshakeError
			if !errors.As(err, &he) {
				t.Errorf("%s/%s: got %v, want *HandshakeError", tc.name, side, err)
				continue
			}
			if he.Field != tc.field {
				t.Errorf("%s/%s: field %q, want %q", tc.name, side, he.Field, tc.field)
			}
		}
	}
}

func TestHelloForResolvesCarrier(t *testing.T) {
	m := tinyModel(nn.PoolAvg)
	cfg := Options{CarrierBits: 20}
	h := helloFor(roleUser, m, ring.New(20), cfg)
	if h.Carrier != 20 || h.Version != ProtocolVersion || h.Model != m.Fingerprint() {
		t.Errorf("unexpected hello %+v", h)
	}
}
