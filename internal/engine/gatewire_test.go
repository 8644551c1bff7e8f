package engine

import (
	"errors"
	"testing"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/transport"
)

// TestGatewirePeeks pins the gateway's wire views against the codecs the
// protocol itself uses — the single-source-of-truth property the gateway
// relies on.
func TestGatewirePeeks(t *testing.T) {
	m := tinyModel(nn.PoolAvg)
	cfg := testCfg()
	h := helloFor(roleUser, m, carrierOf(cfg, m), cfg)
	h.Flags |= flagSession | flagPreproc
	hi, err := PeekHello(h.encode())
	if err != nil {
		t.Fatal(err)
	}
	if hi.Model != m.Fingerprint() || hi.Role != RoleUser || !hi.Preproc {
		t.Errorf("PeekHello = %+v, want model %#x role user with preproc", hi, m.Fingerprint())
	}
	if hi.Version != ProtocolVersion || hi.Carrier != 20 {
		t.Errorf("PeekHello version/carrier = %d/%d, want %d/20", hi.Version, hi.Carrier, ProtocolVersion)
	}
	if _, err := PeekHello([]byte("AQ2Snope")); err == nil {
		t.Error("PeekHello accepted a malformed hello")
	}
	var he *HandshakeError
	if _, err := PeekHello(helloFor(roleUser, m, carrierOf(cfg, m), cfg).encode()); !errors.As(err, &he) || he.Field != "protocol flags" {
		t.Errorf("PeekHello on a hello without the session flag = %v, want the protocol-flags *HandshakeError", err)
	}
	if _, err := PeekHello(BusyRejectFrame()); !errors.Is(err, transport.ErrServerBusy) {
		t.Errorf("PeekHello on busy frame = %v, want ErrServerBusy", err)
	}

	token := SessionToken{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	frame := EncodeAttachRequest(true, token)
	resume, tok, err := PeekAttachRequest(frame)
	if err != nil || !resume || tok != token {
		t.Errorf("attach round-trip = (%v, %x, %v), want (true, %x, nil)", resume, tok, err, token)
	}
	if _, _, err := PeekAttachRequest(frame[:8]); err == nil {
		t.Error("PeekAttachRequest accepted a truncated frame")
	}

	if !IsEndFrame(encodeEnd()) {
		t.Error("IsEndFrame rejected the raw end frame")
	}
	muxEnd := append([]byte{transport.StreamMain}, encodeEnd()...)
	if !IsEndFrame(muxEnd) {
		t.Error("IsEndFrame rejected the mux-prefixed end frame")
	}
	if IsEndFrame(encodeInferReq(0, false)) || IsEndFrame(nil) {
		t.Error("IsEndFrame accepted a non-end frame")
	}
	if !IsBusyFrame(BusyRejectFrame()) || IsBusyFrame(encodeEnd()) {
		t.Error("IsBusyFrame misclassified")
	}
}
