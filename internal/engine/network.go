package engine

import (
	"aq2pnn/internal/ot"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/secure"
	"aq2pnn/internal/share"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
	"aq2pnn/internal/triple"
)

// tracePhase runs f under a fresh root span scoped to the context's
// connection (one lane per protocol phase; the span's comm delta is that
// phase's traffic). With tracing disabled it adds two nil-checks.
func tracePhase(tr *telemetry.Tracer, ctx *secure.Context, name string, f func() error) error {
	sp := tr.Root(name, telemetry.WithConn(ctx.Conn))
	defer sp.End()
	ctx.SetTrace(telemetry.NewScope(sp))
	return f()
}

// Two-process deployment: the same operators as RunLocal, but over a real
// transport with no trusted dealer — OT correlations are harvested through
// base OTs and IKNP extension on the wire and Beaver triple families are
// generated with the Gilboa protocol. The session client and provider
// (sessionclient.go, sessionprovider.go) are the only networked protocol,
// emulating the paper's two-board setup.

// NewNetworkContext builds a party context over a live connection with
// harvest-backed OT and Gilboa triple families.
func NewNetworkContext(party int, conn transport.Conn, cfg Options) *secure.Context {
	rng := prg.NewSeeded(saltedSeed(cfg.Seed, uint64(party)*7919))
	grp := cfg.Group
	if grp.P == nil {
		grp = ot.DefaultGroup()
	}
	ep := ot.NewEndpoint(party, conn, rng.Fork())
	ep.HarvestGroup = grp
	ep.UseExtension = true
	gilboaRng := rng.Fork()
	return &secure.Context{
		Party:      share.Party(party),
		Conn:       conn,
		OT:         ep,
		Rng:        rng.Fork(),
		Triples:    &triple.OTSource{EP: ep, Rng: gilboaRng.Fork(), Party: party},
		LocalTrunc: cfg.LocalTrunc,
		Pool:       cfg.Pool(),
		NewFamily: func(id string, r ring.Ring, k, n int) (triple.Family, error) {
			return triple.NewGilboaFamily(ep, gilboaRng.Fork(), party, r, k, n), nil
		},
	}
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
// otherwise the logit shares are revealed.
func revealResult(ctx *secure.Context, r ring.Ring, cfg Options, o []uint64) (logits []int64, class int, err error) {
	class = -1
	sp := ctx.Trace.Enter("reveal")
	defer ctx.Trace.Exit(sp)
	if cfg.RevealClassOnly {
		idx, err := ctx.ArgMaxBatched(r, o)
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
	}
	return logits, class, nil
}
