package engine

import (
	"aq2pnn/internal/nn"
	"aq2pnn/internal/ot"
	"aq2pnn/internal/parallel"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/secure"
	"aq2pnn/internal/share"
	"aq2pnn/internal/transport"
)

// Two-process deployment: the same operators as RunLocal, but over a real
// transport with no trusted dealer — OT correlations are harvested through
// base OTs and IKNP extension on the wire and Beaver triple families are
// generated with the Gilboa protocol, the convolutions' from fixed-choice
// session seeds (triple.FixedFamily, bound by the session). The session (session.go) is the only
// networked protocol, emulating the paper's two-board setup.

// newNetworkContext builds a party context over a live connection around
// the OT endpoint start returns, given the context's OT stream: a seq's
// endpoint derived from a plane (the main stream's for a cold inference;
// for a warm one, its kit's fill plane, on a stream of its own), or one
// that runs no OT at all (the open's F openings). The context sets the
// endpoint's pool. Triples come from the families the caller binds.
func newNetworkContext(party int, conn transport.Conn, cfg Options, start func(rng *prg.PRG) *ot.Endpoint) *secure.Context {
	rng := prg.NewSeeded(saltedSeed(cfg.Seed, uint64(party)*7919))
	ep := start(rng.Fork())
	ep.Pool = cfg.Pool()
	rng.Fork() // Fork advances rng: keeps ctx.Rng (ABReLU, B2A, faithful truncation) at its pinned position
	return &secure.Context{
		Party:      share.Party(party),
		Conn:       conn,
		OT:         ep,
		Rng:        rng.Fork(),
		LocalTrunc: cfg.LocalTrunc,
		Pool:       ep.Pool,
	}
}

// newOTEndpoint builds party's OT endpoint for a plane set-up over conn:
// base OTs harvested in the configured group (the production default when
// unset) for the first IKNP direction, the other bootstrapped from it,
// with its pad and hash loops on pool. It is the only endpoint that runs
// a public-key set-up: a session runs one per plane (setupFixed), and
// every kit and every seq, warm or cold, derives its endpoint from a
// plane's.
func newOTEndpoint(party int, conn transport.Conn, cfg Options, rng *prg.PRG, pool *parallel.Pool) *ot.Endpoint {
	ep := ot.NewEndpoint(party, conn, rng)
	ep.Pool = pool
	ep.HarvestGroup = cfg.Group
	if ep.HarvestGroup.P == nil {
		ep.HarvestGroup = ot.DefaultGroup()
	}
	return ep
}

// reluRingFor resolves the contracted ABReLU ring: the zero Ring when the
// configured width is 0 or not narrower than the carrier (both mean "full
// width", matching the hello normalisation in helloFor).
func reluRingFor(cfg Options, r ring.Ring) ring.Ring {
	if cfg.ABReLUBits != 0 && cfg.ABReLUBits < r.Bits {
		return ring.New(cfg.ABReLUBits)
	}
	return ring.Ring{}
}

// inferReveal runs this party's online phase on its input share and
// finishes with the reveal. Both parties run it; only party i's returns
// are meaningful (logits nil / class -1 elsewhere).
func (p *Party) inferReveal(cfg Options, x []uint64) (logits []int64, class int, err error) {
	o, err := p.Infer(x)
	if err != nil {
		return nil, -1, err
	}
	return revealResult(p.Ctx, p.R, cfg, o)
}

// revealResult finishes the online phase: under RevealClassOnly a secure
// argmax tournament reveals only the predicted class to the user,
// otherwise the logit shares are revealed and the user derives the class
// from them.
func revealResult(ctx *secure.Context, r ring.Ring, cfg Options, o []uint64) (logits []int64, class int, err error) {
	class = -1
	sp := ctx.Trace.Enter("reveal")
	defer ctx.Trace.Exit(sp)
	if cfg.RevealClassOnly {
		idx, err := ctx.ArgMax(r, o)
		if err != nil {
			return nil, -1, err
		}
		//lint:declassify protocol output: the argmax class index is the protocol's defined result, revealed to the user party only
		opened, err := ctx.RevealTo(r, share.PartyI, []uint64{idx})
		if err != nil {
			return nil, -1, err
		}
		if ctx.Party == share.PartyI {
			class = int(r.ToInt(opened[0]))
		}
		return nil, class, nil
	}
	//lint:declassify protocol output: the logit vector is the protocol's defined result, revealed to the user party only
	opened, err := ctx.RevealTo(r, share.PartyI, o)
	if err != nil {
		return nil, -1, err
	}
	if ctx.Party == share.PartyI {
		logits = r.ToInts(opened)
		class = nn.Argmax(logits)
	}
	return logits, class, nil
}
