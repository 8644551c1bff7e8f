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
	// CarrierBits is the ring width ℓ_c; 0 selects InBits+Margin.
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
	// im2col patches, SCM token matrices, batch pipelining). 0 uses
	// GOMAXPROCS. Results are bit-identical at every setting.
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
	// the failed attempt would have produced.
	Retries uint
	// RetryBase is the first retry's backoff delay (default 100ms). It
	// doubles per attempt, capped at 2s, with deterministic seed-derived
	// jitter (see transport.BackoffDelay).
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
	// every accepted connection.
	IdleTimeout time.Duration
	// MemBudget caps the cumulative bytes one session's peer may declare
	// for this endpoint to receive, charged before any allocation. Every
	// frame payload counts once, as does the announced total of a chunked
	// setup payload (the reassembly buffer), so budget roughly 2× the
	// expected setup volume plus protocol traffic. Exceeding it aborts
	// the session with a typed *transport.BudgetError; 0 disables it.
	MemBudget uint64
	// HandshakeTimeout bounds the hello read at session start on
	// deadline-capable transports: 0 selects DefaultHandshakeTimeout,
	// negative disables the bound entirely.
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
	// FillWorkers caps the filler's local compute parallelism (its Gilboa
	// GEMMs), independently of Workers so background fill does not steal
	// the online path's CPUs. 0 uses GOMAXPROCS. Ignored when BankDepth
	// is 0.
	FillWorkers uint
	// FillWatermark is how many inferences ahead of consumption the filler
	// runs (the fill-ahead watermark). 0 or anything outside [1, BankDepth]
	// selects BankDepth. Ignored when BankDepth is 0.
	FillWatermark uint
}

// DefaultHandshakeTimeout bounds the hello read when
// Options.HandshakeTimeout is zero: generous against slow networks,
// finite against peers that connect and never speak.
const DefaultHandshakeTimeout = 30 * time.Second

// handshakeTimeout resolves the configured hello deadline.
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

// Carrier resolves the ring for a model.
func (c Options) Carrier(m *nn.Model) ring.Ring {
	bits := c.CarrierBits
	if bits == 0 {
		bits = m.InBits + Margin
	}
	return ring.New(bits)
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
	// Class is the securely computed argmax when RevealClassOnly is set
	// (−1 otherwise; derive it from Logits in that case).
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
	// Families optionally overrides the triple family per linear node
	// (node id → family); Prepare falls back to the context's NewFamily
	// provider for nodes not present.
	Families map[int]triple.Family
	linears  map[int]*secure.Linear
	// slab recycles the im2col lowering buffers across layers and
	// inferences — their lifetime ends inside each conv call.
	slab parallel.Slab
	// Profile receives per-node cost entries when non-nil (party i only,
	// by convention).
	Profile *[]OpProfile
}

// LinearDims reports the GEMM shape (K×N) of a linear node, or ok=false
// for non-linear nodes.
func LinearDims(node nn.Node) (k, n int, ok bool) {
	switch op := node.Op.(type) {
	case *nn.Conv:
		return op.Geom.PatchLen(), op.Geom.OutC, true
	case *nn.FC:
		return op.In, op.Out, true
	}
	return 0, 0, false
}

// Prepare opens the weight masks F for every linear node (the setup
// phase; its communication is reported separately from the online phase).
// When Families supplies a node's triple family it is used directly;
// otherwise the context's NewFamily provider is consulted.
func (p *Party) Prepare() error {
	p.linears = map[int]*secure.Linear{}
	for i, node := range p.Model.Nodes {
		k, n, ok := LinearDims(node)
		if !ok {
			continue
		}
		var l *secure.Linear
		var err error
		if fam := p.Families[i]; fam != nil {
			l, err = p.Ctx.PrepareLinearWith(p.R, p.Weights.W[i], k, n, fam)
		} else {
			l, err = p.Ctx.PrepareLinear(fmt.Sprintf("n%d", i), p.R, p.Weights.W[i], k, n)
		}
		if err != nil {
			return fmt.Errorf("engine: prepare node %d: %w", i, err)
		}
		p.linears[i] = l
	}
	return nil
}

// PreparedWeights exports every prepared layer's connection-independent
// product (opened F, precombined W_p − p·F). Call after Prepare.
func (p *Party) PreparedWeights() map[int]*secure.Prepared {
	out := map[int]*secure.Prepared{}
	for i, l := range p.linears {
		out[i] = l.Export()
	}
	return out
}

// Bind installs already-prepared weights with fresh per-node triple
// families, skipping the setup-phase F openings entirely — the batch
// executor pays preparation once and binds it into each image's session.
func (p *Party) Bind(preps map[int]*secure.Prepared, fams map[int]triple.Family) {
	p.linears = map[int]*secure.Linear{}
	for i, prep := range preps {
		p.linears[i] = p.Ctx.BindLinear(prep, fams[i])
	}
}

// Infer runs the secure forward pass on this party's input share and
// returns this party's output share.
func (p *Party) Infer(x []uint64) ([]uint64, error) {
	if p.linears == nil {
		if err := p.Prepare(); err != nil {
			return nil, err
		}
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
			// The tree tournament halves the round count at identical
			// traffic (see secure.MaxPoolTree).
			out, err = p.Ctx.MaxPoolTree(r, get(node.Inputs[0]), op.Geom)
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

// RunLocal performs a complete in-process secure inference: shares the
// model and input, prepares both parties, executes the protocol and
// reveals the logits (to party i, the user).
func RunLocal(m *nn.Model, x []int64, cfg Options) (*Result, error) {
	r := cfg.Carrier(m)
	if len(x) != m.InputShape().Numel() {
		return nil, fmt.Errorf("engine: input length %d, want %d", len(x), m.InputShape().Numel())
	}
	sess := secure.NewLocalSession(saltedSeed(cfg.Seed, 0x5E5510CA))
	defer sess.Close()
	sess.P0.LocalTrunc = cfg.LocalTrunc
	sess.P1.LocalTrunc = cfg.LocalTrunc
	pool := cfg.Pool()
	sess.P0.Pool = pool
	sess.P1.Pool = pool
	g := prg.NewSeeded(saltedSeed(cfg.Seed, 0xA92B11E5D00DF00D))
	ws0, ws1, err := SplitModel(g, m, r)
	if err != nil {
		return nil, err
	}
	x0, x1 := share.SplitVec(g, r, r.FromInts(x))

	reluRing := reluRingFor(cfg, r)
	var profile []OpProfile
	party0 := &Party{Ctx: sess.P0, Model: m, Weights: ws0, R: r, ReLURing: reluRing, Pool: pool, Profile: &profile}
	party1 := &Party{Ctx: sess.P1, Model: m, Weights: ws1, R: r, ReLURing: reluRing, Pool: pool}

	// Setup phase: weight preparation (F openings). Each party's flow gets
	// its own root span (and scope), since the two run concurrently.
	sp0 := cfg.Trace.Root("p0.setup", telemetry.WithConn(sess.P0.Conn))
	sp1 := cfg.Trace.Root("p1.setup", telemetry.WithConn(sess.P1.Conn))
	sess.P0.SetTrace(telemetry.NewScope(sp0))
	sess.P1.SetTrace(telemetry.NewScope(sp1))
	err = sess.Run(
		func(*secure.Context) error { return party0.Prepare() },
		func(*secure.Context) error { return party1.Prepare() },
	)
	sp0.End()
	sp1.End()
	if err != nil {
		return nil, err
	}
	setup, _ := sess.Stats()
	sess.ResetStats()

	// Online phase: fresh per-party root spans, created after the stats
	// reset so their communication deltas equal the online Stats exactly.
	in0 := cfg.Trace.Root("p0.infer", telemetry.WithConn(sess.P0.Conn),
		telemetry.WithAttrs(telemetry.Int("carrier_bits", int64(r.Bits))))
	in1 := cfg.Trace.Root("p1.infer", telemetry.WithConn(sess.P1.Conn),
		telemetry.WithAttrs(telemetry.Int("carrier_bits", int64(r.Bits))))
	sess.P0.SetTrace(telemetry.NewScope(in0))
	sess.P1.SetTrace(telemetry.NewScope(in1))
	var logits []int64
	class := -1
	run := func(p *Party, x []uint64) func(*secure.Context) error {
		return func(*secure.Context) error {
			l, cl, err := p.inferReveal(cfg, x)
			if p.Ctx.Party == share.PartyI {
				logits, class = l, cl
			}
			return err
		}
	}
	err = sess.Run(run(party0, x0), run(party1, x1))
	in0.End()
	in1.End()
	if err != nil {
		return nil, err
	}
	online, _ := sess.Stats()
	return &Result{Logits: logits, Class: class, Setup: setup, Online: online, PerOp: profile, Carrier: r}, nil
}
