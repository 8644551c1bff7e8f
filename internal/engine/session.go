package engine

import (
	"encoding/binary"
	"fmt"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/preproc"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/secure"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
	"aq2pnn/internal/triple"
)

// The session protocol (generation 3), the only networked flow. The setup
// — weight-share exchange plus the F openings of every linear layer — is
// paid once at open; any number of inference requests then stream over the
// prepared state (a single inference is a session of one):
//
//	hello(flagSession) → attach/resume → [weight shares + prepare]   (open)
//	(infer seq=0 → input share → online protocol)*                   (steady state)
//	end                                                              (close)
//
// Each inference runs on a fresh deterministic context derived from
// (Seed, seq): a new OT endpoint whose base OTs and IKNP setup are part of
// that inference's own transcript. Two consequences fall out: every
// steady-state inference costs byte-identical wire traffic (nothing
// accumulates across seqs), and a re-run of an interrupted seq after a transport fault replays the same
// transcript bit for bit — the resumption token lets the client re-attach
// to the provider's parked state instead of replaying setup.

// SessionToken identifies a provider-side persistent session for
// re-attachment after a transport fault. It is an opaque capability in the
// semi-honest model: uniqueness matters (two live sessions must not
// collide), secrecy does not (the peer it names is the one that holds it).
type SessionToken [16]byte

// Session frame magics, following the AQ2x family of the hello ("AQ2S"),
// busy-reject ("AQ2B") and chunked-setup ("AQ2G") frames.
var (
	attachReqMagic  = [4]byte{'A', 'Q', '2', 'R'}
	attachRespMagic = [4]byte{'A', 'Q', '2', 'A'}
	inferReqMagic   = [4]byte{'A', 'Q', '2', 'I'}
	// warmReqMagic requests an inference served from the preprocessing
	// plane: both parties consume seq's precomputed kit instead of
	// generating triples inline. The client sends it only for kits its
	// bank committed, which the fill subprotocol's ack ordering guarantees
	// the provider's store also holds.
	warmReqMagic = [4]byte{'A', 'Q', '2', 'W'}
	endMagic     = [4]byte{'A', 'Q', '2', 'E'}
)

const (
	attachLen   = 24 // magic ·4  flag ·1  pad ·3  token ·16
	inferReqLen = 8  // magic ·4  seq ·4
	endLen      = 8  // magic ·4  pad ·4
)

// attachFrame is the request/response pair opening a persistent session:
// the client asks to resume a token (or sends the zero token for a fresh
// session), the provider answers whether it resumed and which token names
// the session from here on.
type attachFrame struct {
	flag  bool // request: resume?   response: resumed?
	token SessionToken
}

func encodeAttach(magic [4]byte, f attachFrame) []byte {
	p := make([]byte, attachLen)
	copy(p, magic[:])
	if f.flag {
		p[4] = 1
	}
	copy(p[8:], f.token[:])
	return p
}

func decodeAttach(magic [4]byte, p []byte) (attachFrame, error) {
	var f attachFrame
	if len(p) != attachLen {
		return f, wireError("attach frame length", len(p), attachLen)
	}
	if [4]byte(p[:4]) != magic {
		return f, wireError("attach frame magic",
			int(binary.LittleEndian.Uint32(p[:4])), int(binary.LittleEndian.Uint32(magic[:])))
	}
	if p[4] > 1 || p[5] != 0 || p[6] != 0 || p[7] != 0 {
		return f, wireError("attach frame flag", int(p[4]), 1)
	}
	f.flag = p[4] == 1
	copy(f.token[:], p[8:])
	return f, nil
}

func encodeInferReq(seq uint32, warm bool) []byte {
	p := make([]byte, inferReqLen)
	if warm {
		copy(p, warmReqMagic[:])
	} else {
		copy(p, inferReqMagic[:])
	}
	binary.LittleEndian.PutUint32(p[4:], seq)
	return p
}

func encodeEnd() []byte {
	p := make([]byte, endLen)
	copy(p, endMagic[:])
	return p
}

// recvSessionReq reads the next steady-state frame on the provider side:
// an inference request (end=false, with its seq and whether it is warm —
// served from the preprocessing plane) or the end frame (end=true).
// Anything else is a typed wire violation.
func recvSessionReq(conn transport.Conn) (seq uint32, warm, end bool, err error) {
	p, err := conn.Recv()
	if err != nil {
		return 0, false, false, err
	}
	switch {
	case len(p) == inferReqLen && [4]byte(p[:4]) == inferReqMagic:
		return binary.LittleEndian.Uint32(p[4:]), false, false, nil
	case len(p) == inferReqLen && [4]byte(p[:4]) == warmReqMagic:
		return binary.LittleEndian.Uint32(p[4:]), true, false, nil
	case len(p) == endLen && [4]byte(p[:4]) == endMagic:
		return 0, false, true, nil
	}
	return 0, false, false, wireError("session request frame length", len(p), inferReqLen)
}

// Seed-derivation salts. Every per-session and per-inference PRG stream is
// a deterministic function of cfg.Seed so a resumed inference replays the
// interrupted transcript bit for bit; the salts decorrelate the streams
// from each other.
const (
	inferSeedSalt = 0x5E55_10F3_BAD5_EED5
	famSeedSalt   = 0xFA41_11E5_0B5A_A3E5
)

// mix64 is the splitmix64 finalizer: a bijective avalanche so consecutive
// seqs land on decorrelated seeds.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// saltedSeed is the single approved derivation from a raw configuration
// seed to a PRG stream seed: XOR in a purpose salt, then avalanche with
// mix64 so the streams for different purposes (and for adjacent raw
// seeds) are decorrelated. Every transcript-feeding prg.NewSeeded in this
// package must go through it — or through inferOptions/sessionFamSeed,
// which embed the same finalizer; the detrand analyzer enforces this.
func saltedSeed(seed, salt uint64) uint64 { return mix64(seed ^ salt) }

// inferOptions derives inference seq's deterministic per-inference
// configuration: same protocol knobs, decorrelated seed.
func inferOptions(cfg Options, seq uint32) Options {
	cfg.Seed = mix64(cfg.Seed ^ inferSeedSalt ^ (uint64(seq)+1)*0x9E3779B97F4A7C15)
	return cfg
}

// sessionState is one party's half of an established persistent session:
// the connection-independent product of the setup phase, sufficient to
// bind any later connection to the already-prepared weights. The provider
// parks it under the session token after a transport fault; the client
// keeps its own in the Session handle.
type sessionState struct {
	model   *nn.Model
	r       ring.Ring
	weights *WeightShares
	preps   map[int]*secure.Prepared
	bShares map[int][]uint64
}

// newSessionState runs this party's setup half over an established
// context: per-layer Gilboa families with fresh fixed weight masks B, then
// the interactive F openings (Party.Prepare). famSeed drives the B draws —
// unique per session so distinct sessions never share masks.
func newSessionState(ctx *secure.Context, m *nn.Model, r ring.Ring, weights *WeightShares, famSeed uint64) (*sessionState, error) {
	famRng := prg.NewSeeded(famSeed)
	fams := map[int]triple.Family{}
	for i, node := range m.Nodes {
		k, n, ok := LinearDims(node)
		if !ok {
			continue
		}
		fams[i] = triple.NewGilboaFamily(ctx.OT, famRng.Fork(), ctx.P(), r, k, n)
	}
	p := &Party{Ctx: ctx, Model: m, Weights: weights, R: r, Pool: ctx.Pool, Families: fams}
	if err := p.Prepare(); err != nil {
		return nil, err
	}
	bs := map[int][]uint64{}
	for i, f := range fams {
		bs[i] = f.BShare()
	}
	return &sessionState{model: m, r: r, weights: weights, preps: p.PreparedWeights(), bShares: bs}, nil
}

// sessionFamSeed derives the B-mask stream for one session's setup from
// the token (unique per session) and the party index (the two parties'
// shares of B must be independent draws).
func sessionFamSeed(cfg Options, party int, token SessionToken) uint64 {
	return mix64(cfg.Seed ^ famSeedSalt ^ binary.LittleEndian.Uint64(token[:8]) + uint64(party)*7919)
}

// inferFamSeed derives inference seq's per-layer family stream for one
// party from the already-derived per-inference options. Both the inline
// (cold) bind and the preprocessing plane's kit generation use it, which
// is what makes a precomputed kit bit-identical to the triples the cold
// path would generate for the same seq.
func inferFamSeed(icfg Options, party int) uint64 {
	return mix64(icfg.Seed ^ famSeedSalt + uint64(party)*7919)
}

// bindInfer builds the executor for one inference: a fresh deterministic
// context over the live connection (new OT endpoint — its base OTs and
// IKNP setup belong to this inference's own transcript) with the session's
// prepared weights bound through fixed-B families. Both parties derive
// everything from (cfg.Seed, seq), so re-running a seq after a fault
// replays the identical transcript.
//
// kit, when non-nil, is seq's precomputed material from the preprocessing
// plane: linear nodes it covers bind a consumed-once precomputed family
// instead of a live Gilboa one, so the online transcript carries no
// triple generation. The per-node family stream is forked either way —
// the fork positions stay identical between warm and cold binds, which
// (together with the kit itself being generated from inferFamSeed) keeps
// warm and cold logits byte-identical.
func (st *sessionState) bindInfer(conn transport.Conn, party int, cfg Options, seq uint32, kit *preproc.Kit) (*secure.Context, *Party) {
	icfg := inferOptions(cfg, seq)
	ctx := NewNetworkContext(party, conn, icfg)
	famRng := prg.NewSeeded(inferFamSeed(icfg, party))
	fams := map[int]triple.Family{}
	for i, node := range st.model.Nodes {
		k, n, ok := LinearDims(node)
		if !ok {
			continue
		}
		frng := famRng.Fork()
		if kit != nil && kit.Mats[i] != nil {
			fams[i] = triple.NewMatFamily(kit.Mats[i])
			continue
		}
		fams[i] = triple.NewGilboaFamilyFixed(ctx.OT, frng, party, st.r, k, n, st.bShares[i])
	}
	p := &Party{Ctx: ctx, Model: st.model, Weights: st.weights, R: st.r,
		ReLURing: reluRingFor(cfg, st.r), Pool: ctx.Pool}
	p.Bind(st.preps, fams)
	return ctx, p
}

// sessionInferRoot opens the per-inference telemetry root, tagged with the
// seq so the trace distinguishes steady-state inferences.
func sessionInferRoot(tr *telemetry.Tracer, conn transport.Conn, name string, seq uint32) *telemetry.Span {
	return tr.Root(name, telemetry.WithConn(conn),
		telemetry.WithAttrs(telemetry.Int("seq", int64(seq))))
}

// sessionError prefixes a session-phase failure with its seq for
// diagnosis across resume boundaries.
func sessionError(seq uint32, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("engine: session inference %d: %w", seq, err)
}
