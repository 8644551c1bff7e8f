package engine

import (
	"fmt"

	"aq2pnn/internal/ot"
	"aq2pnn/internal/preproc"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
	"aq2pnn/internal/triple"
)

// Engine glue for the asynchronous preprocessing plane (internal/preproc):
// a persistent session opened with BankDepth > 0 multiplexes its connection
// into a main stream and a fill stream, and both parties run a background
// filler that pre-generates each upcoming seq's triple kit over the latter.
// Everything here is a deterministic function of (cfg.Seed, token, seq),
// which is what makes a warm (bank-served) inference reveal logits
// byte-identical to a cold (inline-generation) one.

// preprocSeedSalt decorrelates the fill stream's per-seq OT endpoint
// randomness (its IKNP choice bits) from every online stream. The
// endpoint internals never reach the delivered triple shares — those come
// from the inferFamSeed stream shared with the cold path — so this stream
// only needs to be independent, not matched, and deterministic per seq,
// so that a refilled seq extends its ot.KitHalf namespace of the fill
// stream's plane under the same choice bits. The seq's warm online
// endpoint, in the plane's ot.OnlineHalf, draws from warmOTSeedSalt's
// stream instead.
const preprocSeedSalt = 0x9BE4_4E12_F111_ED00

// preprocFaultWrap, when non-nil, wraps the preprocessing substream before
// the filler starts. Chaos tests install transport fault injectors here to
// kill or corrupt the fill plane without touching the main stream.
var preprocFaultWrap func(party int, c transport.Conn) transport.Conn

func wrapPreprocConn(party int, c transport.Conn) transport.Conn {
	if preprocFaultWrap != nil {
		return preprocFaultWrap(party, c)
	}
	return c
}

// preprocGen builds one party's kit generator for the fill loop. Each call
// replays exactly the per-seq derivation the cold path's bindInfer would
// run — a fresh OT endpoint over the fill stream (its own salted seed; the
// endpoint internals never reach the delivered shares) and the per-layer
// family streams forked from inferFamSeed in node order — then generates
// every linear layer's triple through the same live families (liveFamily):
// fixed-choice layers from the fill stream's seeds, the others through
// Gilboa on the kit's endpoint. Both parties derive the kit's shape from
// the shared architecture (linearLayers), so the fillers agree on it
// without negotiation. The first call sets up the fill stream's plane
// (setupFixed: one public-key set-up and the seed OTs, on an endpoint of
// its own); every kit's endpoint is derived from that plane in its seq's
// ot.KitHalf namespace, so a kit runs no public-key flow and no bootstrap.
// The produced triples are bit-identical to those an inline cold inference
// of the same seq would generate: both streams' seeds come from the
// session's one seed-pair stream. The kit keeps the plane, from which
// bindInfer derives the seq's online endpoint in its ot.OnlineHalf
// namespace, so a warm inference runs no public-key OT either. Local work
// runs on the Workers pool (cfg.Pool).
func preprocGen(pconn transport.Conn, party int, cfg Options, st *sessionState) preproc.GenFunc {
	layers, pool := linearLayers(st.model), cfg.Pool()
	var seeds map[int]*triple.FixedSeeds
	var plane *ot.Plane
	return func(seq uint32, root *telemetry.Span) (*preproc.Kit, error) {
		if plane == nil {
			var err error
			if seeds, plane, err = st.setupFixed(pconn, party, cfg, fixedFillSalt, pool, telemetry.NewScope(root)); err != nil {
				return nil, fmt.Errorf("preprocessing: %w", err)
			}
		}
		icfg := inferOptions(cfg, seq)
		rng := prg.NewSeeded(saltedSeed(icfg.Seed, preprocSeedSalt+uint64(party)*7919))
		ep := plane.Derive(pconn, rng.Fork(), seq, ot.KitHalf)
		ep.Pool = pool
		ep.Trace = telemetry.NewScope(root)
		famRng := prg.NewSeeded(inferFamSeed(icfg, party))
		mats := make(map[int]*triple.Mat, len(layers))
		for _, l := range layers {
			mat, err := st.liveFamily(l, ep, famRng.Fork(), party, seq, seeds, pool).Next(l.M)
			if err != nil {
				return nil, fmt.Errorf("preprocessing node %d: %w", l.Node, err)
			}
			mats[l.Node] = mat
		}
		return &preproc.Kit{Seq: seq, Mats: mats, Plane: plane}, nil
	}
}

// startFill launches party's background filler over the preprocessing
// substream. loop is the role's fill loop over its kit buffer —
// preproc.FillClient on the user's Bank, preproc.FillProvider on the
// provider's Store — fed by a generator replaying the cold path's per-seq
// derivations (see preprocGen). A filler failure only degrades the plane:
// the loop closes the substream, the peer's filler exits symmetrically,
// and every later inference generates its triples inline on the main
// stream. join closes the substream and waits for the filler to exit; a
// filler blocked mid-exchange is unblocked by the peer's symmetric close,
// or by the caller closing the main stream first.
func startFill(pconn transport.Conn, party int, cfg Options, st *sessionState, loop func(preproc.Filler) error) (join func()) {
	pc := wrapPreprocConn(party, pconn)
	gen := preprocGen(pc, party, cfg, st)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = loop(preproc.Filler{Conn: pc, Trace: cfg.Trace, Root: roleNames[party] + ".preproc.fill", Gen: gen})
	}()
	return func() {
		pc.Close()
		<-done
	}
}

// preprocOn reports whether the session should negotiate the preprocessing
// plane.
func (c Options) preprocOn() bool { return c.BankDepth > 0 }
