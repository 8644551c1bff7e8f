package main

import (
	"context"
	"fmt"
	"time"

	"aq2pnn/internal/a2b"
	"aq2pnn/internal/nn"
	"aq2pnn/internal/ot"
	"aq2pnn/internal/parallel"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/scm"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/tensor"
	"aq2pnn/internal/transport"
	"aq2pnn/internal/triple"
)

// Layer replays: each layer's exported functions called at exactly the
// public shapes of the workload's model, timed from outside. They supply
// the compute-only side of the ledger — span self time in the traced run
// includes waiting for the peer. Two-party functions run as two
// goroutines over an in-memory pipe, so no socket is in these figures
// except the transport ones, which are about the socket.

// gemm is one linear layer's public shape; geom is set for convolutions.
type gemm struct {
	m, k, n int
	geom    *tensor.ConvGeom
}

// modelShapes is everything the replays need to know about a model: all
// of it public (the architecture), none of it weights or inputs.
type modelShapes struct {
	r       ring.Ring
	linears []gemm
	relus   []int // activation elements entering each ReLU
}

func shapesOf(m *nn.Model, bits uint) (modelShapes, error) {
	s := modelShapes{r: ring.New(bits)}
	outs, err := m.Shapes()
	if err != nil {
		return s, err
	}
	for i, node := range m.Nodes {
		switch op := node.Op.(type) {
		case *nn.Conv:
			g := op.Geom
			s.linears = append(s.linears, gemm{m: g.Patches(), k: g.PatchLen(), n: g.OutC, geom: &g})
		case *nn.FC:
			s.linears = append(s.linears, gemm{m: 1, k: op.In, n: op.Out})
		case nn.ReLU:
			s.relus = append(s.relus, outs[i].Numel())
		}
	}
	return s, nil
}

func newOracleFor(z sizes, seed uint64) (*oracle, error) {
	m, err := nn.ByName(z.model, nn.ZooConfig{Seed: zooSeed})
	if err != nil {
		return nil, err
	}
	return newOracle(m, z.bits, seed, z.amp, z.tolerance)
}

// timed runs f under a bench.replay span and returns its wall time in ms.
func timed(tr *telemetry.Tracer, name string, f func() error) (float64, error) {
	sp := tr.Root("bench.replay." + name)
	t := time.Now()
	err := f()
	d := time.Since(t)
	sp.End()
	if err != nil {
		return 0, fmt.Errorf("replay %s: %w", name, err)
	}
	return ms(d), nil
}

// pair runs the two parties of a protocol over an in-memory pipe.
func pair(p0, p1 func(c transport.Conn) error) error {
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	errs := make(chan error, 2)
	go func() { errs <- p0(a) }()
	go func() { errs <- p1(b) }()
	e0, e1 := <-errs, <-errs
	if e0 != nil {
		return e0
	}
	return e1
}

// endpoint is a harvest-backed OT endpoint as the networked engine
// builds one per inference: lazy base OTs, then IKNP extension.
func endpoint(party int, c transport.Conn, grp ot.Group) *ot.Endpoint {
	ep := ot.NewEndpoint(party, c, prg.NewSeeded(uint64(0xB0+party)))
	ep.HarvestGroup = grp
	ep.UseExtension = true
	return ep
}

// replaySizes is how much work each replay times. The -quick form keeps
// every replay (each metric must be emitted) at a size a smoke run can
// afford.
type replaySizes struct {
	tensorReps   int // passes over the model's linear layers (gemm, im2col)
	reps         int // passes over the model's activations (scm) and the operand block (prg)
	otReps       int // inferences' worth of token transfers
	elems        int // a2b.Split / PRG.FillElems operands
	extInstances int // IKNP instances per Extend
	trips        int // small-frame round trips
	frames       int // 1 MiB bulk frames
}

var (
	fullReplay  = replaySizes{tensorReps: 100, reps: 20, otReps: 3, elems: 1 << 18, extInstances: 1 << 16, trips: 2000, frames: 64}
	quickReplay = replaySizes{tensorReps: 1, reps: 1, otReps: 1, elems: 1 << 12, extInstances: 1 << 10, trips: 100, frames: 4}
)

func replays(z sizes, n replaySizes, tr *telemetry.Tracer) ([]row, error) {
	m, err := nn.ByName(z.model, nn.ZooConfig{Seed: zooSeed})
	if err != nil {
		return nil, err
	}
	s, err := shapesOf(m, z.bits)
	if err != nil {
		return nil, err
	}
	// replay times one step in ms; after the first failure the rest are
	// skipped and that error is what replays returns.
	var failed error
	replay := func(name string, f func() error) float64 {
		if failed != nil {
			return 0
		}
		var v float64
		v, failed = timed(tr, name, f)
		return v
	}
	pool := parallel.New(0)
	rng := prg.NewSeeded(0xBE7C4)

	// Operands and destinations are made here, outside every timed
	// closure: a replay times its layer's functions and nothing else, so a
	// PRG or allocator change cannot move the tensor or scm lines.

	// tensor: every linear layer's GEMM and every convolution's im2col.
	type gemmArgs struct{ a, b, dst, img, cols []uint64 }
	args := make([]gemmArgs, len(s.linears))
	for i, l := range s.linears {
		args[i] = gemmArgs{a: rng.Elems(l.m*l.k, s.r), b: rng.Elems(l.k*l.n, s.r), dst: make([]uint64, l.m*l.n)}
		if g := l.geom; g != nil {
			args[i].img, args[i].cols = rng.Elems(g.InC*g.InH*g.InW, s.r), make([]uint64, l.m*l.k)
		}
	}
	gemms := func(passes int) func() error {
		return func() error {
			for rep := 0; rep < passes; rep++ {
				for i, l := range s.linears {
					tensor.MatMulModParInto(pool, args[i].dst, args[i].a, args[i].b, l.m, l.k, l.n, s.r.Mask)
				}
			}
			return nil
		}
	}
	im2cols := func(passes int) func() error {
		return func() error {
			for rep := 0; rep < passes; rep++ {
				for i, l := range s.linears {
					if l.geom != nil {
						tensor.Im2ColIntParInto(pool, args[i].cols, args[i].img, *l.geom)
					}
				}
			}
			return nil
		}
	}
	// One pass of Micro's layers takes 10 µs, less than waking the pool's
	// goroutines: an untimed pass first, as the online path runs warm.
	gemms(1)()
	im2cols(1)()
	gemmMs := replay("tensor.gemm", gemms(n.tensorReps))
	im2colMs := replay("tensor.im2col", im2cols(n.tensorReps))

	// scm: the sender's comparison matrix and the receiver's scan, per
	// activation element of every ReLU, on groups split beforehand.
	widths := a2b.LowGroups(s.r.Bits)
	type compared struct {
		sender, receiver []uint64
		flip             uint64
	}
	var cmps []compared
	for _, elems := range s.relus {
		for _, x := range rng.Elems(elems, s.r) {
			cmps = append(cmps, compared{a2b.SplitLow(s.r, x), a2b.SplitLow(s.r, s.r.Neg(x)), x & 1})
		}
	}
	picked := make([]byte, len(widths))
	scmMs := replay("scm.tokens", func() error {
		for rep := 0; rep < n.reps; rep++ {
			for _, c := range cmps {
				rowsOf := scm.SenderTokens(c.sender, widths, c.flip)
				for u, g := range c.receiver {
					picked[u] = rowsOf[u][g]
				}
				if _, err := scm.ScanTokens(picked); err != nil {
					return err
				}
			}
		}
		return nil
	})

	xs := rng.Elems(n.elems, s.r)
	splitMs := replay("a2b.split", func() error {
		for _, x := range xs {
			a2b.Split(s.r, x)
		}
		return nil
	})
	fillMs := replay("prg.fill", func() error {
		for rep := 0; rep < n.reps; rep++ {
			rng.FillElems(xs, s.r)
		}
		return nil
	})

	// ot: one inference's coalesced token transfers on fresh endpoints
	// (each networked inference pays its own base OTs and IKNP refills),
	// then the IKNP base phase and one Extend under each group. The
	// production prime is drawn outside the timing: that draw is a
	// once-per-process cost whose duration does not repeat.
	demo := ot.TestGroup()
	tokensMs := replay("ot.tokens", func() error {
		for rep := 0; rep < n.otReps; rep++ {
			if err := replayTokens(s, widths, demo); err != nil {
				return err
			}
		}
		return nil
	})
	var baseDemo, baseProd, extDemo time.Duration
	replay("ot.ext.demo", func() error { return replayExtension(demo, n.extInstances, &baseDemo, &extDemo) })
	prod := ot.DefaultGroup()
	replay("ot.ext.prod", func() error { return replayExtension(prod, n.extInstances, &baseProd, new(time.Duration)) })

	// triple: one kit's Gilboa generation, every linear layer. The local
	// batch path deals its triples and never runs this.
	gilboa := row{"triple.gilboa_ms_per_kit", 0, "ms", 0}
	if z.batch == 0 {
		gilboa.N = 1
		gilboa.Value = replay("triple.gilboa", func() error {
			return pair(
				func(c transport.Conn) error { return gilboaKit(s, 0, endpoint(0, c, demo)) },
				func(c transport.Conn) error { return gilboaKit(s, 1, endpoint(1, c, demo)) })
		})
	}
	if failed != nil {
		return nil, failed
	}
	tcp, err := replayTransport(tr, s.r, n)
	if err != nil {
		return nil, err
	}
	reps, filled := float64(n.reps), float64(n.reps*n.elems)
	return append([]row{
		{"tensor.gemm_ms_per_inf", gemmMs / float64(n.tensorReps), "ms", n.tensorReps},
		{"tensor.im2col_ms_per_inf", im2colMs / float64(n.tensorReps), "ms", n.tensorReps},
		{"scm.tokens_ms_per_inf", scmMs / reps, "ms", n.reps},
		{"a2b.split_ns_per_elem", splitMs * 1e6 / float64(n.elems), "ns", n.elems},
		{"prg.fill_ns_per_elem", fillMs * 1e6 / filled, "ns", n.reps * n.elems},
		{"ot.tokens_ms_per_inf", tokensMs / float64(n.otReps), "ms", n.otReps},
		{"ot.ext_us_per_inst", ms(extDemo) * 1e3 / float64(n.extInstances), "us", n.extInstances},
		{"ot.baseot_ms_demo", ms(baseDemo), "ms", 1},
		{"ot.baseot_ms_prod", ms(baseProd), "ms", 1},
		gilboa,
	}, tcp...), nil
}

// replayTokens moves one inference's comparison tokens: per ReLU, every
// (element, group) instance of each arity in one SendTokens/RecvTokens.
func replayTokens(s modelShapes, widths []uint, grp ot.Group) error {
	arities := a2b.Arities(widths)
	perArity := map[int]int{}
	for _, w := range widths {
		perArity[1<<w]++
	}
	return pair(
		func(c transport.Conn) error {
			ep := endpoint(0, c, grp)
			for _, elems := range s.relus {
				batches := make([]ot.SendTokenBatch, len(arities))
				for i, n := range arities {
					rows := make([][]byte, elems*perArity[n])
					for k := range rows {
						row := make([]byte, n)
						for j := range row {
							row[j] = scm.TokenGT
						}
						rows[k] = row
					}
					batches[i] = ot.SendTokenBatch{N: n, Rows: rows}
				}
				if err := ep.SendTokens(2, batches); err != nil {
					return err
				}
			}
			return nil
		},
		func(c transport.Conn) error {
			ep := endpoint(1, c, grp)
			for _, elems := range s.relus {
				batches := make([]ot.RecvTokenBatch, len(arities))
				for i, n := range arities {
					batches[i] = ot.RecvTokenBatch{N: n, Choices: make([]int, elems*perArity[n])}
				}
				if _, err := ep.RecvTokens(2, batches); err != nil {
					return err
				}
			}
			return nil
		})
}

// replayExtension runs the IKNP base phase (κ base OTs in grp) and one
// Extend of instances (2¹⁶ in a full run), timing each as the extension
// sender sees it.
func replayExtension(grp ot.Group, instances int, base, ext *time.Duration) error {
	return pair(
		func(c transport.Conn) error {
			t := time.Now()
			s, err := ot.NewExtSender(c, grp, prg.NewSeeded(0xE0), ot.ExtKappa)
			if err != nil {
				return err
			}
			*base = time.Since(t)
			t = time.Now()
			_, err = s.Extend(instances)
			*ext = time.Since(t)
			return err
		},
		func(c transport.Conn) error {
			r, err := ot.NewExtReceiver(c, grp, prg.NewSeeded(0xE1), ot.ExtKappa)
			if err != nil {
				return err
			}
			_, err = r.Extend(instances)
			return err
		})
}

func gilboaKit(s modelShapes, party int, ep *ot.Endpoint) error {
	rng := prg.NewSeeded(uint64(0x61B0 + party))
	for _, l := range s.linears {
		if _, err := triple.GenMatGilboa(ep, rng.Fork(), s.r, party, l.m, l.k, l.n); err != nil {
			return err
		}
	}
	return nil
}

// replayTransport measures the loopback socket path: a 64-byte frame
// ping-pong bare and through the session mux (per round trip), and bulk
// element frames one way.
func replayTransport(tr *telemetry.Tracer, r ring.Ring, n replaySizes) ([]row, error) {
	l, err := transport.NewListener("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	ctx := context.Background()
	accepted := make(chan transport.Conn, 1)
	acceptErr := make(chan error, 1)
	go func() {
		c, err := l.Accept(ctx)
		if err != nil {
			acceptErr <- err
			return
		}
		accepted <- c
	}()
	client, err := transport.DialContext(ctx, l.Addr(), dialWait)
	if err != nil {
		return nil, err
	}
	defer client.Close()
	var server transport.Conn
	select {
	case server = <-accepted:
	case err := <-acceptErr:
		return nil, err
	}
	defer server.Close()

	trips := n.trips
	small := make([]byte, 64)
	pingPong := func(a, b transport.Conn) func() error {
		return func() error {
			errs := make(chan error, 1)
			go func() {
				for i := 0; i < trips; i++ {
					p, err := transport.RecvBytes(b)
					if err == nil {
						err = transport.SendBytes(b, p)
					}
					if err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
			for i := 0; i < trips; i++ {
				if err := transport.SendBytes(a, small); err != nil {
					return err
				}
				if _, err := transport.RecvBytes(a); err != nil {
					return err
				}
			}
			return <-errs
		}
	}
	bare, err := timed(tr, "transport.frame", pingPong(client, server))
	if err != nil {
		return nil, err
	}

	frames := n.frames
	elems := make([]uint64, (1<<20)/r.Bytes())
	bulk, err := timed(tr, "transport.elems", func() error {
		errs := make(chan error, 1)
		go func() {
			for i := 0; i < frames; i++ {
				if _, err := transport.RecvElems(server, r, len(elems)); err != nil {
					errs <- err
					return
				}
			}
			errs <- transport.SendBytes(server, small[:1])
		}()
		for i := 0; i < frames; i++ {
			if err := transport.SendElems(client, r, elems); err != nil {
				return err
			}
		}
		if _, err := transport.RecvBytes(client); err != nil {
			return err
		}
		return <-errs
	})
	if err != nil {
		return nil, err
	}

	// The mux goes on last: once installed it owns the connection.
	cm, _ := transport.NewMux(client)
	sm, _ := transport.NewMux(server)
	muxed, err := timed(tr, "transport.mux", pingPong(cm, sm))
	if err != nil {
		return nil, err
	}
	return []row{
		{"transport.frame_us_small", bare * 1e3 / float64(trips), "us", trips},
		{"transport.mux_us_small", muxed * 1e3 / float64(trips), "us", trips},
		{"transport.elems_mb_s", float64(frames) * float64(len(elems)*r.Bytes()) / 1e6 / (bulk / 1e3), "MB/s", frames},
	}, nil
}
