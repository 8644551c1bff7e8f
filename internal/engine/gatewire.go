package engine

import (
	"aq2pnn/internal/transport"
)

// Gateway wire-peek helpers. A routing tier in front of a provider fleet
// (internal/gateway) terminates no protocol state: it reads just enough
// of a session's opening frames — the hello and the attach request — to
// pick a backend, may rewrite a fresh attach with a gateway-minted token
// so the routing key survives failover, and splices raw frames from
// there on. These exported views
// keep the wire layouts in exactly one place: the gateway decodes with
// the same functions the protocol itself uses.

// RoleUser is the hello role a connecting client declares; RoleProvider
// is the serving side's. A gateway fronts providers, so it admits only
// user hellos.
const (
	RoleUser     = roleUser
	RoleProvider = roleProvider
)

// HelloInfo is the public routing metadata of a client hello. Everything
// here is public by the protocol's own design — the hello crosses the
// wire before any secret-shared material.
type HelloInfo struct {
	Version uint16
	Role    uint8
	Carrier uint16
	Model   uint64 // architecture fingerprint
	Preproc bool   // preprocessing plane requested (frames ride the mux)
}

// PeekHello decodes a client hello frame without consuming it: the frame
// is forwarded verbatim to the chosen backend. A busy-reject frame in
// hello position surfaces as transport.ErrServerBusy, any other
// malformed frame — or a hello that does not request the session flow,
// the only one a provider serves — as the typed *HandshakeError the
// protocol itself would produce.
func PeekHello(frame []byte) (HelloInfo, error) {
	h, err := decodeHello(frame)
	if err != nil {
		return HelloInfo{}, err
	}
	if h.Flags&flagSession == 0 {
		return HelloInfo{}, &HandshakeError{Field: "protocol flags",
			Local: uint64(h.Flags | flagSession), Peer: uint64(h.Flags)}
	}
	return HelloInfo{
		Version: h.Version,
		Role:    h.Role,
		Carrier: h.Carrier,
		Model:   h.Model,
		Preproc: h.Flags&flagPreproc != 0,
	}, nil
}

// PeekAttachRequest decodes a session attach request: whether the client
// asks to resume, and under which token.
func PeekAttachRequest(frame []byte) (resume bool, token SessionToken, err error) {
	f, err := decodeAttach(attachReqMagic, frame)
	if err != nil {
		return false, SessionToken{}, err
	}
	return f.flag, f.token, nil
}

// EncodeAttachRequest builds a session attach request frame. The gateway
// uses it to rewrite a fresh open (resume=false, zero token) into a
// resume under a gateway-minted token: the provider's attach miss falls
// back to a fresh setup under that token (see provideSession), which
// pins the routing key — and therefore the consistent-hash owner — for
// the session's whole life, across re-dials and backend deaths.
func EncodeAttachRequest(resume bool, token SessionToken) []byte {
	return encodeAttach(attachReqMagic, attachFrame{flag: resume, token: token})
}

// BusyRejectFrame returns the load-shed reject sent in place of the
// provider hello. Clients classify it as transport.ErrServerBusy —
// transient — so their retry loop backs off and re-attempts; the gateway
// sends it when no eligible backend remains or its own admission cap is
// hit.
func BusyRejectFrame() []byte { return busyFrame() }

// IsEndFrame reports whether frame is the client's session end frame —
// raw, or carried on the mux main substream (1-byte stream prefix) when
// the preprocessing plane was negotiated. The gateway watches for it so
// a client-initiated close is scored as a clean session, not a backend
// failure.
func IsEndFrame(frame []byte) bool {
	if len(frame) == endLen+1 && frame[0] == transport.StreamMain {
		frame = frame[1:]
	}
	return len(frame) == endLen && [4]byte(frame[:4]) == endMagic
}

// IsBusyFrame reports whether frame is a busy-reject. The gateway
// watches the backend's first answer for it: a backend shedding under
// its own admission cap is load, not ill health, and must not trip the
// circuit breaker.
func IsBusyFrame(frame []byte) bool {
	return len(frame) == busyLen && [4]byte(frame[:4]) == busyMagic
}
