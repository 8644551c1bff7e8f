package engine

import (
	"fmt"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/ot"
	"aq2pnn/internal/parallel"
	"aq2pnn/internal/preproc"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
	"aq2pnn/internal/triple"
)

// Engine glue for the asynchronous preprocessing plane (internal/preproc):
// a persistent session opened with BankDepth > 0 multiplexes its connection
// into a main stream and a fill stream, and both parties run a background
// filler that pre-generates each upcoming seq's triple kit over the latter.
// Everything here is a deterministic function of (cfg.Seed, seq), which is
// what makes a warm (bank-served) inference reveal logits byte-identical to
// a cold (inline-generation) one.

// preprocSeedSalt decorrelates the fill stream's per-seq OT endpoint
// randomness (base-OT keys, IKNP matrices) from every online stream. The
// endpoint internals never reach the delivered triple shares — those come
// from the inferFamSeed stream shared with the cold path — so this stream
// only needs to be independent, not matched.
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

// preprocLayers extracts the public per-inference GEMM schedule from the
// model: one (M×K)⊗(K×N) family triple per linear node, M the static conv
// patch count (or 1 for FC). Both parties derive the identical schedule
// from the shared architecture, so the fillers agree on a kit's shape
// without negotiation.
func preprocLayers(m *nn.Model) []preproc.Layer {
	var ls []preproc.Layer
	for i, node := range m.Nodes {
		k, n, ok := LinearDims(node)
		if !ok {
			continue
		}
		rows := 1
		if op, isConv := node.Op.(*nn.Conv); isConv {
			rows = op.Geom.Patches()
		}
		ls = append(ls, preproc.Layer{Node: i, M: rows, K: k, N: n})
	}
	return ls
}

// preprocGen builds one party's kit generator for the fill loop. Each call
// replays exactly the per-seq derivation the cold path's bindInfer would
// run — a fresh OT endpoint over the fill stream (its own salted seed; the
// endpoint internals never reach the delivered shares) and the per-layer
// family streams forked from inferFamSeed in node order — then runs the
// interactive Gilboa generation for every linear layer. The produced kit
// is bit-identical to the triples an inline cold inference of the same seq
// would generate.
func preprocGen(pconn transport.Conn, party int, cfg Options, r ring.Ring,
	layers []preproc.Layer, bShares map[int][]uint64, pool *parallel.Pool) preproc.GenFunc {
	grp := cfg.Group
	if grp.P == nil {
		grp = ot.DefaultGroup()
	}
	return func(seq uint32, root *telemetry.Span) (*preproc.Kit, error) {
		icfg := inferOptions(cfg, seq)
		rng := prg.NewSeeded(saltedSeed(icfg.Seed, preprocSeedSalt+uint64(party)*7919))
		ep := ot.NewEndpoint(party, pconn, rng.Fork())
		ep.HarvestGroup = grp
		ep.UseExtension = true
		ep.Trace = telemetry.NewScope(root)
		famRng := prg.NewSeeded(inferFamSeed(icfg, party))
		mats := make(map[int]*triple.Mat, len(layers))
		for _, l := range layers {
			fam := triple.NewGilboaFamilyFixed(ep, famRng.Fork(), party, r, l.K, l.N, bShares[l.Node])
			fam.Pool = pool
			mat, err := fam.Generate(l.M)
			if err != nil {
				return nil, fmt.Errorf("preprocessing node %d: %w", l.Node, err)
			}
			mats[l.Node] = mat
		}
		return &preproc.Kit{Seq: seq, Mats: mats}, nil
	}
}

// preprocOn reports whether the session should negotiate the preprocessing
// plane.
func (c Options) preprocOn() bool { return c.BankDepth > 0 }

// fillWatermark resolves the fill-ahead watermark knob (0 = run the full
// bank depth ahead; NewBank clamps out-of-range values).
func (c Options) fillWatermark() int {
	if c.FillWatermark == 0 {
		return c.BankDepth
	}
	return int(c.FillWatermark)
}
