package engine

import (
	"encoding/binary"
	"fmt"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/ot"
	"aq2pnn/internal/parallel"
	"aq2pnn/internal/preproc"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/secure"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
	"aq2pnn/internal/triple"
)

// The session protocol, the only networked flow. The setup — weight-share
// exchange plus the F openings of every linear layer — is paid once at
// open; any number of inference requests then stream over the prepared
// state (a single inference is a session of one):
//
//	hello(flagSession) → attach/resume → [weight shares + prepare + seeds]   (open)
//	([fixed set-up →] infer seq → input share → online protocol)*            (steady state)
//	end                                                                      (close)
//
// The seeds are the fixed-choice seed OTs of the convolutions
// (triple.SetupFixed), from which every later triple of those layers is
// built with no OT. They run on a plane set-up (setupFixed): the one
// public-key base-OT set-up of a stream, whose base state (ot.Plane) every
// later OT endpoint of that stream derives from. Without the
// preprocessing plane the open sets up the main stream; with it the open
// stays OT-free, the fill stream sets up its own before its first kit, and
// the main stream sets up on the client's fixed-set-up request before its
// first cold inference, if any. Every run sends the same seeds and yields
// the same plane: both derive from (Seed, token, stream, party).
//
// Each inference runs on a fresh deterministic context derived from
// (Seed, seq): a new OT endpoint whose extensions are part of that
// inference's own transcript. Every seq's endpoint is derived from a plane
// in a counter namespace of seq's own and runs no public-key set-up: a
// cold seq's from the main stream's plane, a warm seq's from the fill
// stream's plane that made its kit, in the half of seq's namespaces that
// the kit's fill left unused (ot.OnlineHalf). Two consequences fall out:
// every steady-state inference costs byte-identical wire traffic (nothing
// accumulates across seqs), and a re-run of an interrupted seq after a
// transport fault replays the same transcript bit for bit — the
// resumption token lets the client re-attach to the provider's parked
// state, plane included, instead of replaying setup. A retried seq runs
// cold: both parties dropped its kit when the failed attempt took it, and
// the client restarts the preprocessing plane at the next seq.
//
// Both parties run a session through the same party-indexed steps: the
// handshake deadline (armHandshake), the setup (openState), the fill plane
// (startFill) and the per-seq inference (inferSeq). Each takes the role's
// own step as an argument and branches on the party only to name its
// telemetry roots and salt its seeds; sessionclient.go and
// sessionprovider.go hold the role-specific control flow around them.

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
	// fixedReqMagic asks the provider to run the fixed-choice seed OTs on
	// the main stream (setupFixed) before a cold inference whose session
	// state lacks them, because the open ran with the preprocessing plane;
	// the provider echoes it when done. It is set-up, not a seq's online
	// traffic.
	fixedReqMagic = [4]byte{'A', 'Q', '2', 'F'}
	endMagic      = [4]byte{'A', 'Q', '2', 'E'}
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

// encodeFixedReq is the fixed-set-up request, laid out like the end frame.
func encodeFixedReq() []byte {
	p := encodeEnd()
	copy(p, fixedReqMagic[:])
	return p
}

// sessionReq is a steady-state request kind, as the provider reads it.
type sessionReq int

const (
	reqCold  sessionReq = iota // inference, triples generated inline
	reqWarm                    // inference served from the preprocessing plane
	reqFixed                   // the main stream's plane set-up and seed OTs
	reqEnd                     // end of session
)

// recvSessionReq reads the next steady-state frame on the provider side:
// an inference request (with its seq), a fixed-set-up request or the end
// frame. Anything else is a typed wire violation.
func recvSessionReq(conn transport.Conn) (seq uint32, req sessionReq, err error) {
	p, err := conn.Recv()
	if err != nil {
		return 0, 0, err
	}
	switch {
	case len(p) == inferReqLen && [4]byte(p[:4]) == inferReqMagic:
		return binary.LittleEndian.Uint32(p[4:]), reqCold, nil
	case len(p) == inferReqLen && [4]byte(p[:4]) == warmReqMagic:
		return binary.LittleEndian.Uint32(p[4:]), reqWarm, nil
	case len(p) == endLen && [4]byte(p[:4]) == fixedReqMagic:
		return 0, reqFixed, nil
	case len(p) == endLen && [4]byte(p[:4]) == endMagic:
		return 0, reqEnd, nil
	}
	return 0, 0, wireError("session request frame length", len(p), inferReqLen)
}

// Seed-derivation salts. Every per-session and per-inference PRG stream is
// a deterministic function of cfg.Seed so a resumed inference replays the
// interrupted transcript bit for bit; the salts decorrelate the streams
// from each other.
const (
	inferSeedSalt  = 0x5E55_10F3_BAD5_EED5
	famSeedSalt    = 0xFA41_11E5_0B5A_A3E5
	warmOTSeedSalt = 0x0C7E_D5EE_D0FA_17ED
	// fixedSeedSalt keys a session's fixed-choice seed pairs: one stream
	// per (Seed, token, party), so every set-up of the session — on either
	// stream, on any attachment — sends the same seeds.
	fixedSeedSalt = 0xF1ED_C401_CE5E_ED51
	// fixedMainSalt and fixedFillSalt key the OT endpoint under the seed
	// OTs, per (Seed, token, stream, party). A set-up runs nothing else on
	// its endpoint, so a stream's re-runs repeat one transcript (same
	// choice bits, same messages), and no two sessions or streams share
	// IKNP columns.
	fixedMainSalt = 0x3A1F_1E0D_5EED_0717
	fixedFillSalt = 0xF111_F1ED_5EED_0717
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
	token   SessionToken
	weights *WeightShares
	preps   map[int]*secure.Prepared
	bShares map[int][]uint64
	// fixed holds the main stream's fixed-choice seeds per node and plane
	// the main stream's base OTs, both nil until setupFixed ran: at a
	// no-plane open, or before the first cold inference otherwise. Every
	// cold seq derives its OT endpoint from plane. They live beside the
	// opened F and survive a resumed re-attach on both sides; a re-attach
	// that misses sets the session up afresh, seeds and plane included.
	fixed map[int]*triple.FixedSeeds
	plane *ot.Plane
}

// fixedLayers lists the fixed-choice layers (triple.FixedChoice) of the
// session's schedule in node order, with this party's B shares.
func (st *sessionState) fixedLayers() (nodes []int, layers []triple.FixedLayer) {
	for _, l := range linearLayers(st.model) {
		if triple.FixedChoice(l.M, l.N) {
			nodes = append(nodes, l.Node)
			layers = append(layers, triple.FixedLayer{R: st.r, K: l.K, N: l.N, BShare: st.bShares[l.Node]})
		}
	}
	return nodes, layers
}

// needsPlane reports whether a cold inference must first set up the main
// stream's plane and seed OTs.
func (st *sessionState) needsPlane() bool { return st.plane == nil }

// tokenSeed derives a per-session stream seed from cfg.Seed, a purpose
// salt, both halves of the session token and the party.
func tokenSeed(cfg Options, salt uint64, party int, token SessionToken) uint64 {
	le := binary.LittleEndian
	return mix64(mix64(cfg.Seed^salt^le.Uint64(token[:8])) ^ le.Uint64(token[8:]) + uint64(party)*7919)
}

// setupFixed sets up one plane of this party over conn, the stream salt
// naming it (fixedMainSalt or fixedFillSalt), traced under trace: one
// public-key set-up on an OT endpoint of its own, the fixed-choice seed
// OTs of every fixed-choice layer (none for a model without one), then the
// plane's base state for both IKNP directions (ot.Endpoint.Plane). The
// seed pairs come from the session's fixedSeedSalt stream and the
// endpoint's randomness from (Seed, token, stream, party), so every run
// returns the same seeds and the same plane. Only the plane's κ-sized
// state outlives the call, not the endpoint's leftover stock.
func (st *sessionState) setupFixed(conn transport.Conn, party int, cfg Options, stream uint64,
	pool *parallel.Pool, trace *telemetry.Scope) (map[int]*triple.FixedSeeds, *ot.Plane, error) {
	nodes, layers := st.fixedLayers()
	ep := newOTEndpoint(party, conn, cfg, prg.NewSeeded(tokenSeed(cfg, stream, party, st.token)), pool)
	ep.Trace = trace
	seeds := make(map[int]*triple.FixedSeeds, len(nodes))
	if len(nodes) > 0 {
		got, err := triple.SetupFixed(ep, prg.NewSeeded(tokenSeed(cfg, fixedSeedSalt, party, st.token)), party, layers)
		if err != nil {
			return nil, nil, fmt.Errorf("fixed-choice set-up: %w", err)
		}
		for i, node := range nodes {
			seeds[node] = got[i]
		}
	}
	plane, err := ep.Plane()
	if err != nil {
		return nil, nil, fmt.Errorf("plane set-up: %w", err)
	}
	return seeds, plane, nil
}

// newSessionState runs this party's setup half over an established
// context: it draws the fixed weight mask B of every linear node, then
// opens F against it (prepareLinears). famSeed drives the B draws —
// unique per session so distinct sessions never share masks.
func newSessionState(ctx *secure.Context, m *nn.Model, r ring.Ring, weights *WeightShares, famSeed uint64) (*sessionState, error) {
	famRng := prg.NewSeeded(famSeed)
	bs := map[int][]uint64{}
	for _, l := range linearLayers(m) {
		bs[l.Node] = famRng.Fork().Elems(l.K*l.N, r)
	}
	preps, err := prepareLinears(ctx, m, r, weights, bs)
	if err != nil {
		return nil, err
	}
	return &sessionState{model: m, r: r, weights: weights, preps: preps, bShares: bs}, nil
}

// sessionFamSeed derives the B-mask stream for one session's setup from
// the token (unique per session) and the party index (the two parties'
// shares of B must be independent draws).
func sessionFamSeed(cfg Options, party int, token SessionToken) uint64 {
	return mix64(cfg.Seed ^ famSeedSalt ^ binary.LittleEndian.Uint64(token[:8]) + uint64(party)*7919)
}

// openState runs one party's setup half under its "<role>.session.open"
// root: the role's weight-share step inside the exchange.shares span — the
// user receives and validates its share, the provider sends the
// registry's cached payload — then the F openings (newSessionState) over
// the B masks drawn for this session's token and, with fixed (no
// preprocessing plane), the main stream's plane and fixed-choice seed
// OTs. The F openings run no OT, so the open's context has an endpoint
// with no base-OT group.
func openState(conn transport.Conn, party int, cfg Options, m *nn.Model, r ring.Ring, token SessionToken,
	fixed bool, exchange func() (*WeightShares, error)) (*sessionState, error) {
	ctx := newNetworkContext(party, conn, cfg, func(rng *prg.PRG) *ot.Endpoint { return ot.NewEndpoint(party, conn, rng) })
	sp := cfg.Trace.Root(roleNames[party]+".session.open", telemetry.WithConn(conn))
	defer sp.End()
	ctx.SetTrace(telemetry.NewScope(sp))
	esp := ctx.Trace.Enter("exchange.shares")
	weights, err := exchange()
	ctx.Trace.Exit(esp)
	if err != nil {
		return nil, err
	}
	st, err := newSessionState(ctx, m, r, weights, sessionFamSeed(cfg, party, token))
	if err != nil {
		return nil, err
	}
	st.token = token
	if fixed {
		if st.fixed, st.plane, err = st.setupFixed(conn, party, cfg, fixedMainSalt, cfg.Pool(), ctx.Trace); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// openFixed sets up the main stream's plane and seed OTs under a
// "<role>.session.open" root of their own: set-up work, asked for by the
// client's fixed-set-up request before a cold inference of a session
// opened with the preprocessing plane.
func (st *sessionState) openFixed(conn transport.Conn, party int, cfg Options) error {
	sp := cfg.Trace.Root(roleNames[party]+".session.open", telemetry.WithConn(conn))
	defer sp.End()
	fixed, plane, err := st.setupFixed(conn, party, cfg, fixedMainSalt, cfg.Pool(), telemetry.NewScope(sp))
	if err != nil {
		return err
	}
	st.fixed, st.plane = fixed, plane
	return nil
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
// context over the live connection (new OT endpoint, whose extensions
// belong to this inference's own transcript) with the session's prepared
// weights bound through fixed-B families. Both parties derive everything
// from (cfg.Seed, seq) and whether the bind is warm, so re-running a cold
// seq after a fault replays the identical transcript.
//
// A cold seq's endpoint is derived from the main stream's plane
// (st.plane, from setupFixed) in seq's ot.KitHalf namespace: it runs no
// public-key set-up and no bootstrap, and a replay of seq extends the same
// columns under the same choice bits. kit, when non-nil, is seq's
// precomputed material from the preprocessing plane: the OT endpoint is
// derived from the fill plane that made it (kit.Plane) in seq's
// ot.OnlineHalf namespace, which the kit's own fill never extended, and
// linear nodes it covers bind a consumed-once precomputed family instead
// of a live one (liveFamily over the main stream's seeds, st.fixed), so
// the online transcript carries no triple generation. A warm endpoint
// draws on an OT stream of its own (warmOTSeedSalt), apart from the stream
// a cold run of seq draws its choice bits from: a seq retried after a
// fault runs cold. The per-node family stream is forked either way — the fork
// positions stay identical between warm and cold binds, which (together
// with the kit itself being generated from inferFamSeed) keeps warm and
// cold logits byte-identical.
func (st *sessionState) bindInfer(conn transport.Conn, party int, cfg Options, seq uint32, kit *preproc.Kit) (*secure.Context, *Party) {
	icfg := inferOptions(cfg, seq)
	ctx := newNetworkContext(party, conn, icfg, func(rng *prg.PRG) *ot.Endpoint {
		if kit == nil {
			return st.plane.Derive(conn, rng, seq, ot.KitHalf)
		}
		return kit.Plane.Derive(conn, prg.NewSeeded(saltedSeed(icfg.Seed, warmOTSeedSalt+uint64(party)*7919)), seq, ot.OnlineHalf)
	})
	famRng := prg.NewSeeded(inferFamSeed(icfg, party))
	fams := map[int]triple.Family{}
	for _, l := range linearLayers(st.model) {
		frng := famRng.Fork()
		if kit != nil && kit.Mats[l.Node] != nil {
			fams[l.Node] = triple.NewMatFamily(kit.Mats[l.Node])
		} else {
			fams[l.Node] = st.liveFamily(l, ctx.OT, frng, party, seq, st.fixed, ctx.Pool)
		}
	}
	p := &Party{Ctx: ctx, Model: st.model, Weights: st.weights, R: st.r,
		ReLURing: reluRingFor(cfg, st.r), Pool: ctx.Pool}
	p.Bind(st.preps, fams)
	return ctx, p
}

// liveFamily is party's family for layer l of seq, generated live over
// ep: fixed-choice from seeds when the layer has them, Gilboa otherwise.
// The cold bind passes the main stream's seeds and the kit fill the fill
// stream's, and both draw rng from the same inferFamSeed fork, which is
// what makes a kit bit-identical to the cold path's triples. pool spreads
// each generation's local work (bit-identical at any worker count).
func (st *sessionState) liveFamily(l linearLayer, ep *ot.Endpoint, rng *prg.PRG, party int, seq uint32,
	seeds map[int]*triple.FixedSeeds, pool *parallel.Pool) triple.Family {
	if s := seeds[l.Node]; s != nil {
		return &triple.FixedFamily{EP: ep, Rng: rng, Party: party, Seeds: s, Seq: seq, Pool: pool}
	}
	fam := triple.NewGilboaFamily(ep, rng, party, st.r, l.K, l.N, st.bShares[l.Node])
	fam.Pool = pool
	return fam
}

// inferSeq runs one party's inference seq over the live connection: a
// fresh per-seq executor (bindInfer) under the party's
// "<role>.session.infer" root, the role's input step — the user sends the
// request and the provider's share of the input, the provider receives
// that share — in the input.share span, then the online protocol and the
// reveal. Only the
// user's logits and class are meaningful; profile, when non-nil, receives
// the per-node costs. Errors carry the seq.
func (st *sessionState) inferSeq(conn transport.Conn, party int, cfg Options, seq uint32, kit *preproc.Kit,
	profile *[]OpProfile, input func() ([]uint64, error)) (logits []int64, class int, err error) {
	if kit == nil && st.needsPlane() {
		return nil, -1, sessionError(seq, fmt.Errorf("engine: cold inference before the attachment's plane set-up"))
	}
	ctx, p := st.bindInfer(conn, party, cfg, seq, kit)
	p.Profile = profile
	sp := cfg.Trace.Root(roleNames[party]+".session.infer", telemetry.WithConn(conn),
		telemetry.WithAttrs(telemetry.Int("seq", int64(seq))))
	defer sp.End()
	ctx.SetTrace(telemetry.NewScope(sp))
	isp := ctx.Trace.Enter("input.share")
	x, err := input()
	ctx.Trace.Exit(isp)
	if err == nil {
		logits, class, err = p.inferReveal(cfg, x)
	}
	return logits, class, sessionError(seq, err)
}

// sessionError prefixes a session-phase failure with its seq for
// diagnosis across resume boundaries.
func sessionError(seq uint32, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("engine: session inference %d: %w", seq, err)
}
