package engine

import (
	"fmt"
	"sync"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/secure"
	"aq2pnn/internal/share"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
	"aq2pnn/internal/triple"
)

// Batched inference: the weight preparation (F openings) is paid once and
// every image reuses the prepared layers, as a deployed MLaaS endpoint
// would. The per-image online traffic is what Table 4 amortizes over its
// 1,000-iteration averages.
//
// Images are pipelined: cfg.Workers lanes each run a full online phase
// over their own in-memory session, so one image's OT rounds overlap
// another's GEMMs. Determinism is preserved by construction — every image
// draws its transcript randomness from a PRG fork derived serially before
// any lane starts, and pulls triples from its own fixed-B pool — so the
// logits and the measured per-image traffic are bit-identical for every
// Workers setting.

// BatchResult reports a batched secure inference run.
type BatchResult struct {
	// Logits holds each image's revealed outputs (nil per image under
	// RevealClassOnly).
	Logits [][]int64
	// Classes holds each image's securely computed argmax when
	// RevealClassOnly is set (nil otherwise).
	Classes []int
	// Setup is the one-time weight-preparation traffic (party i).
	Setup transport.Stats
	// OnlinePerImage is the average per-image online traffic.
	OnlinePerImage transport.Stats
	// Online is the total online traffic summed over images.
	Online transport.Stats
	// PerOp aggregates each node's cost over the batch (bytes, rounds and
	// host time summed across images; Elems stays per-image).
	PerOp   []OpProfile
	Carrier ring.Ring
}

// RunLocalBatch executes secure inference over a batch of inputs with one
// setup phase. All images ride the same carrier and configuration.
func RunLocalBatch(m *nn.Model, xs [][]int64, cfg Options) (*BatchResult, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("engine: empty batch")
	}
	r := cfg.Carrier(m)
	for i, x := range xs {
		if len(x) != m.InputShape().Numel() {
			return nil, fmt.Errorf("engine: image %d has %d values, want %d", i, len(x), m.InputShape().Numel())
		}
	}
	g := prg.NewSeeded(saltedSeed(cfg.Seed, 0xBA7C4))
	ws0, ws1, err := SplitModel(g, m, r)
	if err != nil {
		return nil, err
	}

	// One fixed weight mask per linear node, dealt up front so the F
	// openings (setup) and every image's triple pools share the same B.
	fixed := map[int]*triple.FixedB{}
	linearNodes := []int{}
	for i, node := range m.Nodes {
		k, n, ok := LinearDims(node)
		if !ok {
			continue
		}
		fb, err := triple.DealFixedB(g.Fork(), r, k, n)
		if err != nil {
			return nil, fmt.Errorf("engine: dealing node %d mask: %w", i, err)
		}
		fixed[i] = fb
		linearNodes = append(linearNodes, i)
	}

	// Setup phase: one session pays the F openings; the preparation
	// product is exported for reuse by every image session, so batch setup
	// traffic equals single-inference setup traffic exactly.
	famsFor := func(pg *prg.PRG, party int) map[int]triple.Family {
		fams := map[int]triple.Family{}
		for _, i := range linearNodes {
			fams[i] = fixed[i].Pool(pg.Fork()).View(party)
		}
		return fams
	}
	prep := secure.NewLocalSession(saltedSeed(cfg.Seed, 0x5E55BA7C))
	prep.P0.LocalTrunc = cfg.LocalTrunc
	prep.P1.LocalTrunc = cfg.LocalTrunc
	prepG := g.Fork()
	party0 := &Party{Ctx: prep.P0, Model: m, Weights: ws0, R: r, Families: famsFor(prepG, 0)}
	party1 := &Party{Ctx: prep.P1, Model: m, Weights: ws1, R: r, Families: famsFor(prepG, 1)}
	sp0 := cfg.Trace.Root("p0.setup", telemetry.WithConn(prep.P0.Conn))
	sp1 := cfg.Trace.Root("p1.setup", telemetry.WithConn(prep.P1.Conn))
	prep.P0.SetTrace(telemetry.NewScope(sp0))
	prep.P1.SetTrace(telemetry.NewScope(sp1))
	err = prep.Run(
		func(*secure.Context) error { return party0.Prepare() },
		func(*secure.Context) error { return party1.Prepare() },
	)
	sp0.End()
	sp1.End()
	if err != nil {
		prep.Close()
		return nil, err
	}
	setup, _ := prep.Stats()
	preps0 := party0.PreparedWeights()
	preps1 := party1.PreparedWeights()
	prep.Close()

	reluRing := reluRingFor(cfg, r)
	pool := cfg.Pool()

	// Derive all per-image randomness serially BEFORE any lane runs: the
	// input shares and one PRG fork per image. Faithful truncation's ±1
	// LSB depends on the share randomness, so this is what makes logits
	// independent of lane scheduling.
	k := len(xs)
	x0 := make([][]uint64, k)
	x1 := make([][]uint64, k)
	forks := make([]*prg.PRG, k)
	for i, x := range xs {
		x0[i], x1[i] = share.SplitVec(g, r, r.FromInts(x))
		forks[i] = g.Fork()
	}

	logits := make([][]int64, k)
	classes := make([]int, k)
	stats := make([]transport.Stats, k)
	profiles := make([][]OpProfile, k)
	errs := make([]error, k)

	runImage := func(i int) error {
		ig := forks[i]
		// Per-image triple pools over the shared fixed Bs (fork order is
		// the serial node order — deterministic).
		fams0 := map[int]triple.Family{}
		fams1 := map[int]triple.Family{}
		for _, n := range linearNodes {
			fp := fixed[n].Pool(ig.Fork())
			fams0[n] = fp.View(0)
			fams1[n] = fp.View(1)
		}
		sess := secure.NewLocalSessionFrom(ig.Fork())
		defer sess.Close()
		sess.P0.LocalTrunc = cfg.LocalTrunc
		sess.P1.LocalTrunc = cfg.LocalTrunc
		sess.P0.Pool = pool
		sess.P1.Pool = pool
		var profile []OpProfile
		p0 := &Party{Ctx: sess.P0, Model: m, Weights: ws0, R: r, ReLURing: reluRing, Pool: pool, Profile: &profile}
		p1 := &Party{Ctx: sess.P1, Model: m, Weights: ws1, R: r, ReLURing: reluRing, Pool: pool}
		p0.Bind(preps0, fams0)
		p1.Bind(preps1, fams1)
		// Each image session gets its own pair of root spans (= trace
		// lanes); the tracer is goroutine-safe, the per-lane scopes are
		// confined to their party goroutine.
		img0 := cfg.Trace.Root(fmt.Sprintf("p0.image%d", i), telemetry.WithConn(sess.P0.Conn))
		img1 := cfg.Trace.Root(fmt.Sprintf("p1.image%d", i), telemetry.WithConn(sess.P1.Conn))
		defer img0.End()
		defer img1.End()
		sess.P0.SetTrace(telemetry.NewScope(img0))
		sess.P1.SetTrace(telemetry.NewScope(img1))

		run := func(p *Party, x []uint64) func(*secure.Context) error {
			return func(*secure.Context) error {
				l, cl, err := p.inferReveal(cfg, x)
				if p.Ctx.Party == share.PartyI {
					logits[i], classes[i] = l, cl
				}
				return err
			}
		}
		err := sess.Run(run(p0, x0[i]), run(p1, x1[i]))
		stats[i], _ = sess.Stats()
		profiles[i] = profile
		return err
	}

	// Pipeline images over dedicated lanes. Lanes block on pipe I/O, so
	// they are goroutines of their own rather than pool tasks; the pool
	// accelerates the compute inside each lane.
	lanes := pool.Workers()
	if lanes > k {
		lanes = k
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = runImage(i)
			}
		}()
	}
	for i := 0; i < k; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("engine: image %d: %w", i, err)
		}
	}

	out := &BatchResult{Logits: logits, Setup: setup, Carrier: r}
	if cfg.RevealClassOnly {
		out.Classes = classes
		out.Logits = nil
	}
	for i := 0; i < k; i++ {
		out.Online.Add(stats[i])
		if profiles[i] != nil {
			if out.PerOp == nil {
				out.PerOp = append([]OpProfile(nil), profiles[i]...)
			} else {
				for j := range out.PerOp {
					out.PerOp[j].Bytes += profiles[i][j].Bytes
					out.PerOp[j].Rounds += profiles[i][j].Rounds
					out.PerOp[j].HostTime += profiles[i][j].HostTime
				}
			}
		}
	}
	n := uint64(k)
	out.OnlinePerImage = transport.Stats{
		BytesSent: out.Online.BytesSent / n,
		BytesRecv: out.Online.BytesRecv / n,
		MsgsSent:  out.Online.MsgsSent / n,
		MsgsRecv:  out.Online.MsgsRecv / n,
		Rounds:    out.Online.Rounds / n,
		SendErrs:  out.Online.SendErrs / n,
		RecvErrs:  out.Online.RecvErrs / n,
	}
	return out, nil
}
