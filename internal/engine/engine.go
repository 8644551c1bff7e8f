// Package engine executes a quantized nn.Model under the AQ2PNN 2PC
// protocol: it secret-shares the model and input, walks the graph with the
// secure operators (AS-GEMM convolutions, 2PC-BNReQ, ABReLU, 2PC pooling)
// on a carrier ring sized by the adaptive quantization rule, and profiles
// per-operator communication — the measured quantities behind Tables 4, 5,
// 7 and 8.
package engine

import (
	"fmt"
	"time"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/ot"
	"aq2pnn/internal/parallel"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/secure"
	"aq2pnn/internal/share"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/tensor"
	"aq2pnn/internal/transport"
	"aq2pnn/internal/triple"
)

// Margin is the paper's carrier headroom: an ℓ-bit plaintext model rides a
// 2^(ℓ+4) ring (Sec. 5.1).
const Margin = 4

// Options controls a secure inference run — local, batched or networked.
// The zero value is a working configuration (carrier from the model,
// faithful truncation, full-width ReLU, logit reveal, one worker per CPU).
type Options struct {
	// CarrierBits is the ring width ℓ_c; 0 selects InBits+Margin, the
	// paper's adaptive rule.
	CarrierBits uint
	// Seed drives all protocol randomness for reproducible experiments.
	Seed uint64
	// LocalTrunc selects the paper's zero-communication local truncation
	// for BNReQ/AvgPool instead of the faithful SCM-based truncation; see
	// internal/secure/trunc.go and EXPERIMENTS.md for the ablation.
	LocalTrunc bool
	// ABReLUBits, when non-zero and smaller than the carrier, contracts
	// the shares onto a narrower ring for every ReLU (the "output bits
	// sent to the ABReLU operator" of Tables 7/8) and zero-extends the
	// non-negative result back — the per-layer ring adaptation of Sec. 5.
	ABReLUBits uint
	// RevealClassOnly replaces the logit reveal with a secure argmax
	// tournament: the user learns only the predicted class index.
	RevealClassOnly bool
	// Workers caps this process's local compute parallelism (GEMM rows,
	// im2col patches, SCM token matrices, batch pipelining, and the online
	// OT endpoint's pad, IKNP row-hash and combine loops). 0 uses
	// GOMAXPROCS. Results and wire bytes are bit-identical at every
	// setting.
	Workers uint
	// Group selects the OT-flow group for networked runs. The zero value
	// uses the production 512-bit prime; demos may pass ot.TestGroup() for
	// speed (explicitly NOT cryptographically strong). Ignored by local
	// dealer-backed runs.
	Group ot.Group
	// Trace collects hierarchical telemetry spans (per-phase, per-layer,
	// per-protocol-op) with exact per-span communication attribution; nil
	// (the default) disables tracing at one branch per instrumented call.
	// Tracing never touches protocol bytes: outputs are bit-identical with
	// it on or off, at every Workers setting.
	Trace *telemetry.Tracer
	// Retries is how many additional attempts OpenSession and each
	// Session.Infer make after a transient failure (0 = single attempt).
	// A retry re-dials and re-attaches through the resumption token,
	// falling back to a fresh setup when the provider no longer holds the
	// state; the transcript is a deterministic function of (Seed, token,
	// seq), so a retried inference reveals logits bit-identical to what
	// the failed attempt would have produced. Permanent errors (handshake
	// or payload mismatches) are never retried.
	Retries uint
	// RetryBase is the first retry's backoff delay (default 100ms). It
	// doubles per attempt, capped at 2s, with deterministic seed-derived
	// jitter (see transport.Backoff).
	RetryBase time.Duration
	// SessionTimeout bounds one attempt end to end — on the user each
	// Session.Infer attempt, on the provider each ServeRegistryTCP
	// connection (the whole session lifetime; prefer IdleTimeout for
	// per-frame patience). 0 disables the deadline.
	SessionTimeout time.Duration
	// DrainGrace is how long ServeRegistryTCP lets in-flight sessions
	// keep running after ctx is cancelled before force-closing their
	// connections. 0 tears sessions down immediately on cancellation.
	DrainGrace time.Duration
	// MaxConcurrentSessions caps how many sessions ServeRegistryTCP runs
	// at once. Connections beyond the cap are shed with a typed busy reject
	// (transport.ErrServerBusy — transient, so retrying clients back off
	// and re-attempt) instead of being queued; 0 admits everything.
	MaxConcurrentSessions int
	// IdleTimeout is the longest a networked peer may stall a single
	// Send/Recv (re-armed per transferred segment, so bulk transfers are
	// bounded by progress, not total size). It kills slow-loris peers on
	// the serving path; 0 disables it. Applied by ServeRegistryTCP to
	// every accepted connection. For persistent sessions it also bounds
	// how long an attached-but-silent client may hold its connection (the
	// parked state stays resumable).
	IdleTimeout time.Duration
	// MemBudget caps the cumulative bytes one session's peer may declare
	// for this endpoint to receive, charged before any allocation. Every
	// frame payload counts once, as does the announced total of a chunked
	// setup payload (the reassembly buffer), so budget roughly 2× the
	// expected setup volume plus protocol traffic. Exceeding it aborts
	// the session with a typed *transport.BudgetError; 0 disables it.
	MemBudget uint64
	// HandshakeTimeout bounds the hello and attach exchange at session
	// start on deadline-capable transports — never the setup phase behind
	// it: 0 selects DefaultHandshakeTimeout, negative disables the bound
	// entirely.
	HandshakeTimeout time.Duration
	// SessionCache caps how many detached persistent sessions a serving
	// Registry keeps resumable (prepared state parked after a client's
	// transport fault, waiting for a token re-attach). 0 selects
	// DefaultSessionCache; negative disables resumption caching.
	SessionCache int
	// BankDepth enables the asynchronous preprocessing plane on persistent
	// sessions: a dedicated fill stream is multiplexed onto the session
	// connection and background fillers pre-generate up to BankDepth
	// inference kits (one triple per linear layer each) ahead of demand, so
	// warm steady-state inferences run no triple generation online. 0 (the
	// default) disables the plane; values above preproc.MaxDepth clamp.
	// Warm and cold inferences reveal byte-identical logits.
	BankDepth int
}

// DefaultHandshakeTimeout bounds the hello and attach exchange when
// Options.HandshakeTimeout is zero: generous against slow networks,
// finite against peers that connect and never speak.
const DefaultHandshakeTimeout = 30 * time.Second

// handshakeTimeout resolves the configured handshake deadline.
func (c Options) handshakeTimeout() time.Duration {
	switch {
	case c.HandshakeTimeout < 0:
		return 0
	case c.HandshakeTimeout == 0:
		return DefaultHandshakeTimeout
	}
	return c.HandshakeTimeout
}

// Pool resolves the compute pool for the Workers setting.
func (c Options) Pool() *parallel.Pool { return parallel.New(c.Workers) }

// Carrier resolves the ring for a model. A width past ring.MaxBits, set
// or defaulted, is an error.
func (c Options) Carrier(m *nn.Model) (ring.Ring, error) {
	bits := c.CarrierBits
	if bits == 0 {
		bits = m.InBits + Margin
	}
	if bits > ring.MaxBits {
		return ring.Ring{}, fmt.Errorf("engine: %d-bit carrier exceeds the %d-bit maximum", bits, ring.MaxBits)
	}
	return ring.New(bits), nil
}

// OpProfile is one node's measured cost at party i's endpoint.
type OpProfile struct {
	Name     string
	Kind     string
	Elems    int // output elements
	Bytes    uint64
	Rounds   uint64
	HostTime time.Duration
}

// Result is the outcome of a secure inference.
type Result struct {
	// Logits are the revealed outputs (nil under RevealClassOnly).
	Logits []int64
	// Class is the predicted class: the securely computed argmax when
	// RevealClassOnly is set, the argmax of Logits otherwise.
	Class int
	// Setup is party i's traffic during weight preparation (F openings).
	Setup transport.Stats
	// Online is party i's traffic during inference.
	Online transport.Stats
	// PerOp profiles each node (party i's endpoint).
	PerOp []OpProfile
	// Carrier is the ring the inference ran on.
	Carrier ring.Ring
}

// WeightShares holds one party's share of every parameterized node.
type WeightShares struct {
	W    map[int][]uint64 // node id → weight share
	Bias map[int][]uint64 // node id → bias share
}

// SplitModel secret-shares all weights and biases of a model onto the
// ring. In deployment the model provider derives party i's share from a
// common seed (zero communication); here the dealer PRG plays that role.
func SplitModel(g *prg.PRG, m *nn.Model, r ring.Ring) (p0, p1 *WeightShares, err error) {
	p0 = &WeightShares{W: map[int][]uint64{}, Bias: map[int][]uint64{}}
	p1 = &WeightShares{W: map[int][]uint64{}, Bias: map[int][]uint64{}}
	for i, node := range m.Nodes {
		var w, bias []int64
		switch op := node.Op.(type) {
		case *nn.Conv:
			if op.Skeleton() {
				return nil, nil, fmt.Errorf("engine: node %d is a skeleton Conv", i)
			}
			// GEMM layout: (PatchLen × OutC), transposed from storage.
			pl := op.Geom.PatchLen()
			w = make([]int64, len(op.W))
			for oc := 0; oc < op.Geom.OutC; oc++ {
				for k := 0; k < pl; k++ {
					w[k*op.Geom.OutC+oc] = op.W[oc*pl+k]
				}
			}
			bias = op.Bias
		case *nn.FC:
			if op.Skeleton() {
				return nil, nil, fmt.Errorf("engine: node %d is a skeleton FC", i)
			}
			w = make([]int64, len(op.W))
			for o := 0; o < op.Out; o++ {
				for k := 0; k < op.In; k++ {
					w[k*op.Out+o] = op.W[o*op.In+k]
				}
			}
			bias = op.Bias
		default:
			continue
		}
		w0, w1 := share.SplitVec(g, r, r.FromInts(w))
		p0.W[i], p1.W[i] = w0, w1
		if bias != nil {
			b0, b1 := share.SplitVec(g, r, r.FromInts(bias))
			p0.Bias[i], p1.Bias[i] = b0, b1
		}
	}
	return p0, p1, nil
}

// Party is one side's compiled executor.
type Party struct {
	Ctx     *secure.Context
	Model   *nn.Model
	Weights *WeightShares
	R       ring.Ring
	// ReLURing, when a valid ring narrower than R, hosts the ABReLU
	// evaluations (shares are contracted before and zero-extended after).
	ReLURing ring.Ring
	// Pool distributes this party's local tensor work (im2col, activation
	// transpose); nil runs serially. The context carries its own pool for
	// the secure operators.
	Pool *parallel.Pool
	// linears holds the bound linear layers (Bind), one per linear node.
	linears map[int]*secure.Linear
	// slab recycles the im2col lowering buffers across layers and
	// inferences — their lifetime ends inside each conv call.
	slab parallel.Slab[uint64]
	// Profile receives per-node cost entries when non-nil (party i only,
	// by convention).
	Profile *[]OpProfile
}

// linearLayer is the public GEMM shape of one linear node: each inference
// consumes exactly one (M×K)⊗(K×N) triple for it, M the static conv patch
// count (or 1 for FC), K×N the weight in GEMM layout.
type linearLayer struct {
	Node    int // node index in the model graph
	M, K, N int
}

// linearLayers lists m's linear nodes in node order. Both parties derive
// it from the shared architecture, and every walk over the linear layers
// — the B masks and F openings, the fixed-choice set-up, the per-inference
// bind, the kit fill, the dealt batch and the payload check — runs over
// it, so all of them agree on shapes and order without negotiation.
func linearLayers(m *nn.Model) []linearLayer {
	var ls []linearLayer
	for i, node := range m.Nodes {
		switch op := node.Op.(type) {
		case *nn.Conv:
			ls = append(ls, linearLayer{Node: i, M: op.Geom.Patches(), K: op.Geom.PatchLen(), N: op.Geom.OutC})
		case *nn.FC:
			ls = append(ls, linearLayer{Node: i, M: 1, K: op.In, N: op.Out})
		}
	}
	return ls
}

// prepareLinears opens the weight mask F of every linear layer, in node
// order, against this party's share of the node's fixed weight mask B
// (bShares, node id → K×N share): the setup phase, whose communication is
// reported separately from the online phase. The result is what Bind
// takes.
func prepareLinears(ctx *secure.Context, m *nn.Model, r ring.Ring, weights *WeightShares, bShares map[int][]uint64) (map[int]*secure.Prepared, error) {
	preps := map[int]*secure.Prepared{}
	for _, l := range linearLayers(m) {
		prep, err := ctx.PrepareLinear(r, weights.W[l.Node], bShares[l.Node], l.K, l.N)
		if err != nil {
			return nil, fmt.Errorf("engine: prepare node %d: %w", l.Node, err)
		}
		preps[l.Node] = prep
	}
	return preps, nil
}

// Bind installs prepared weights (prepareLinears) with this inference's
// per-node triple families, each over the fixed B its F was opened
// against: preparation is paid once, and every inference, of a batch or
// of a session, binds it afresh.
func (p *Party) Bind(preps map[int]*secure.Prepared, fams map[int]triple.Family) {
	p.linears = map[int]*secure.Linear{}
	for i, prep := range preps {
		p.linears[i] = p.Ctx.BindLinear(prep, fams[i])
	}
}

// Infer runs the secure forward pass on this party's input share and
// returns this party's output share. The weights must be bound (Bind).
func (p *Party) Infer(x []uint64) ([]uint64, error) {
	if p.linears == nil {
		return nil, fmt.Errorf("engine: inference before the weights are bound")
	}
	shapes, err := p.Model.Shapes()
	if err != nil {
		return nil, err
	}
	r := p.R
	vals := make([][]uint64, len(p.Model.Nodes))
	get := func(idx int) []uint64 {
		if idx == -1 {
			return x
		}
		return vals[idx]
	}
	for i, node := range p.Model.Nodes {
		start := time.Now()
		before := p.Ctx.Conn.Stats()
		// One span per layer; it is exited before the error check below, so
		// failed layers are recorded too. The secure operators nest their
		// own spans under it through the context's scope.
		sp := p.Ctx.Trace.Enter("layer."+node.Name, telemetry.WithAttrs(
			telemetry.String("kind", node.Op.Kind()),
			telemetry.Int("elems", int64(shapes[i].Numel()))))
		var out []uint64
		switch op := node.Op.(type) {
		case *nn.Conv:
			out, err = p.runConv(i, op, get(node.Inputs[0]))
		case *nn.FC:
			out, err = p.runFC(i, op, get(node.Inputs[0]))
		case nn.ReLU:
			out, err = p.runReLU(get(node.Inputs[0]))
		case *nn.MaxPool:
			out, err = p.Ctx.MaxPool(r, get(node.Inputs[0]), op.Geom)
		case *nn.AvgPool:
			out, err = p.Ctx.AvgPool(r, get(node.Inputs[0]), op.Geom)
		case nn.Add:
			a := get(node.Inputs[0])
			b := get(node.Inputs[1])
			out = make([]uint64, len(a))
			r.AddVec(out, a, b)
		case nn.Flatten:
			out = append([]uint64(nil), get(node.Inputs[0])...)
		default:
			err = fmt.Errorf("engine: unknown op %T", node.Op)
		}
		p.Ctx.Trace.Exit(sp)
		if err != nil {
			return nil, fmt.Errorf("engine: node %d (%s): %w", i, node.Op.Kind(), err)
		}
		vals[i] = out
		telemetry.Count("aq2pnn_layers_total", 1)
		telemetry.Observe("aq2pnn_layer_seconds", time.Since(start).Seconds(), telemetry.DurationBuckets)
		telemetry.Observe("aq2pnn_layer_ring_bits", float64(r.Bits), telemetry.BitBuckets)
		if p.Profile != nil {
			d := p.Ctx.Conn.Stats().Sub(before)
			*p.Profile = append(*p.Profile, OpProfile{
				Name:     node.Name,
				Kind:     node.Op.Kind(),
				Elems:    shapes[i].Numel(),
				Bytes:    d.TotalBytes(),
				Rounds:   d.Rounds,
				HostTime: time.Since(start),
			})
		}
	}
	return vals[len(vals)-1], nil
}

// runReLU evaluates ABReLU. With a narrower ReLU ring configured, only
// the sign computation runs on the contracted shares ("the output bits
// sent to the ABReLU operator", Tables 7/8): contraction is local and
// exact whenever the activation fits the narrow ring (clipping beyond it
// is the sweep's accuracy knob), the A2BM/SCM token traffic scales with
// the reduced width, and the multiplexer keeps operating on the carrier
// shares, so no ring extension is needed afterwards.
func (p *Party) runReLU(in []uint64) ([]uint64, error) {
	if p.ReLURing.Bits == 0 || p.ReLURing.Bits >= p.R.Bits {
		return p.Ctx.ABReLU(p.R, in)
	}
	small := append([]uint64(nil), in...)
	share.ContractVec(p.R, p.ReLURing, small)
	msb, err := p.Ctx.MSBShares(p.ReLURing, small)
	if err != nil {
		return nil, err
	}
	if p.Ctx.Party == share.PartyI {
		for k := range msb {
			msb[k] ^= 1
		}
	}
	return p.Ctx.Mux(p.R, in, msb)
}

func (p *Party) runConv(i int, op *nn.Conv, in []uint64) ([]uint64, error) {
	g := op.Geom
	cols := p.slab.Get(g.Patches() * g.PatchLen())
	tensor.Im2ColIntParInto(p.Pool, cols, in, g)
	acc, err := p.linears[i].Mul(cols, g.Patches()) // (patches × OutC)
	p.slab.Put(cols)
	if err != nil {
		return nil, err
	}
	// Transpose to (OutC × patches) to match the NCHW activation layout.
	patches := g.Patches()
	out := make([]uint64, len(acc))
	p.Pool.Blocks(patches, func(lo, hi int) {
		for pt := lo; pt < hi; pt++ {
			for oc := 0; oc < g.OutC; oc++ {
				out[oc*patches+pt] = acc[pt*g.OutC+oc]
			}
		}
	})
	if err := p.Ctx.BNReQ(p.R, out, g.OutC, patches, p.Weights.Bias[i], op.Im, op.Ie); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *Party) runFC(i int, op *nn.FC, in []uint64) ([]uint64, error) {
	out, err := p.linears[i].Mul(in, 1) // (1 × Out)
	if err != nil {
		return nil, err
	}
	if err := p.Ctx.BNReQ(p.R, out, op.Out, 1, p.Weights.Bias[i], op.Im, op.Ie); err != nil {
		return nil, err
	}
	return out, nil
}

// RunLocal performs a complete in-process secure inference — a batch of
// one: shares the model and input, prepares both parties, executes the
// protocol and reveals the logits (to party i, the user).
func RunLocal(m *nn.Model, x []int64, cfg Options) (*Result, error) {
	b, err := RunLocalBatch(m, [][]int64{x}, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Class: b.Classes[0], Setup: b.Setup, Online: b.Online, PerOp: b.PerOp, Carrier: b.Carrier}
	if !cfg.RevealClassOnly {
		res.Logits = b.Logits[0]
	}
	return res, nil
}
