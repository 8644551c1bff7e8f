package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aq2pnn"
	"aq2pnn/internal/engine"
	"aq2pnn/internal/gateway"
	"aq2pnn/internal/nn"
	"aq2pnn/internal/ot"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
)

// Fixed conditions (README.md states them): model weights from one zoo
// seed, all protocol randomness from one engine seed, the fast demo OT
// group (the production group draws a fresh 512-bit prime per process and
// its timing does not repeat; the replays report its cost), loopback TCP,
// Workers/FillWorkers at their defaults, never more clients than
// GOMAXPROCS, closed loops throughout.
const (
	zooSeed    = 3
	engineSeed = 3
	dialWait   = 10 * time.Second
)

// sizes is what distinguishes the four workloads (and their -quick forms).
type sizes struct {
	model string
	bits  uint
	// amp bounds the generated inputs to [-amp, amp). Faithful truncation
	// is exact to one LSB only while every accumulator stays under a
	// quarter of the ring: Micro's reach 4.7k of 16384 at amp 16, but
	// LeNet5's reach 51k there, so on a 16-bit carrier it gets amp 2
	// (5.5k); above the limit its logits are noise no oracle can check.
	amp        int
	kits       int  // banked: kits filled, then warm inferences run, per session
	prefill    int  // banked: kits the set-up session waits for before it counts as ready
	perSession int  // fleet: cold inferences per session
	backends   int  // fleet
	batch      int  // local: images per SecureInferBatch call
	setupReps  int  // extra set-ups timed before the measured one
	warmup     bool // run one unmeasured unit before the window
	// tolerance is how far a secure logit may sit from the plaintext
	// ring-mode reference. Faithful truncation is off by at most one LSB
	// per BNReQ shift and every later linear layer amplifies that: over
	// 400 Micro and 64 LeNet5 inputs the largest gap seen was 9 and 72. A
	// wrong share or triple lands anywhere in the ring, thousands away.
	tolerance int64
}

const (
	microTolerance  = 16
	lenet5Tolerance = 128
)

// system is one workload, set up and ready: run executes measured units
// (sessions or batches) until the deadline, at least one; close tears
// everything down and reports what only the teardown can see.
type system interface {
	run(ctx context.Context, rec *recorder, until time.Time)
	close(rec *recorder) error
}

// env is what a set-up receives: the workload's sizes, the generated
// inputs with their references, the tracer (nil on untraced runs) and the
// logits digest (nil except for the measured system).
type env struct {
	z      sizes
	or     *oracle
	tr     *telemetry.Tracer
	digest *logitDigest
}

type workload struct {
	spec  workloadSpec
	full  sizes
	quick sizes
	setup func(e env) (system, error)
}

var workloads = []workload{
	{workloadSpecs[0],
		sizes{model: "micro", bits: 16, amp: 16, kits: 25, prefill: 5, setupReps: 4, warmup: true, tolerance: microTolerance},
		sizes{model: "micro", bits: 16, amp: 16, kits: 2, prefill: 1, setupReps: 1, tolerance: microTolerance},
		setupBanked},
	{workloadSpecs[1],
		sizes{model: "lenet5", bits: 16, amp: 2, kits: 1, setupReps: 20, tolerance: lenet5Tolerance},
		sizes{model: "micro", bits: 16, amp: 2, kits: 1, setupReps: 1, tolerance: microTolerance},
		setupBanked},
	{workloadSpecs[2],
		sizes{model: "micro", bits: 16, amp: 16, perSession: 3, backends: 2, setupReps: 2, warmup: true, tolerance: microTolerance},
		sizes{model: "micro", bits: 16, amp: 16, perSession: 1, backends: 2, tolerance: microTolerance},
		setupFleet},
	{workloadSpecs[3],
		sizes{model: "lenet5", bits: 32, amp: 16, batch: 8, setupReps: 2, tolerance: lenet5Tolerance},
		sizes{model: "micro", bits: 32, amp: 16, batch: 2, tolerance: microTolerance},
		setupLocalBatch},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].spec.Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// recorder collects one measured window's samples. The fleet workload's
// clients record concurrently.
type recorder struct {
	tally
	mu        sync.Mutex
	inferMs   []float64
	sessionMs []float64
	fillS     []float64 // seconds per kit, one sample per session
	online    *transport.Stats
	wire      uint64 // user-party bytes: session set-up, fill stream, online
	offline   uint64 // fill-stream bytes
	kits      int
}

// inference records one completed inference and enforces that every
// measured inference of a workload costs identical online traffic.
func (r *recorder) inference(or *oracle, input int, latencyMs float64, online transport.Stats, logits []int64) {
	r.mu.Lock()
	r.inferMs = append(r.inferMs, latencyMs)
	drift := false
	if r.online == nil {
		r.online = &online
	} else if *r.online != online {
		drift = true
	}
	r.mu.Unlock()
	if drift {
		r.fail(1, fmt.Sprintf("online traffic %+v differs from the first inference's %+v", online, *r.online))
		return
	}
	r.judge(or, input, logits)
}

func (r *recorder) session(ms float64, wire uint64) {
	r.mu.Lock()
	r.sessionMs = append(r.sessionMs, ms)
	r.wire += wire
	r.mu.Unlock()
}

// filled records one session's timed bank fill.
func (r *recorder) filled(d time.Duration, kits int, offline uint64) {
	r.mu.Lock()
	r.fillS = append(r.fillS, d.Seconds()/float64(kits))
	r.offline += offline
	r.kits += kits
	r.mu.Unlock()
}

// provider is one self-hosted serving loop on a loopback listener.
type provider struct {
	addr   string
	lis    *transport.Listener
	cancel context.CancelFunc
	done   chan error
}

func startProvider(m *nn.Model, cfg engine.Options) (*provider, error) {
	reg := engine.NewRegistry()
	if err := reg.Add(m); err != nil {
		return nil, err
	}
	l, err := transport.NewListener("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &provider{addr: l.Addr(), lis: l, cancel: cancel, done: make(chan error, 1)}
	go func() { p.done <- engine.ServeRegistryTCP(ctx, l, reg, cfg, 0, nil) }()
	return p, nil
}

// stop shuts the provider down and waits for its sessions to end.
func (p *provider) stop() error {
	p.cancel()
	err := <-p.done
	p.lis.Close()
	return err
}

func engineOptions(z sizes, tr *telemetry.Tracer) engine.Options {
	return engine.Options{CarrierBits: z.bits, Seed: engineSeed, Group: ot.TestGroup(), Trace: tr}
}

func dialer(addr string) engine.Redial {
	return func(ctx context.Context) (transport.Conn, error) {
		return transport.DialContext(ctx, addr, dialWait)
	}
}

// trackedDial dials addr and keeps the raw connection, whose counters see
// the fill stream multiplexed beside the session's main stream.
type trackedDial struct {
	addr string
	raw  transport.Conn
}

func (d *trackedDial) dial(ctx context.Context) (transport.Conn, error) {
	c, err := dialer(d.addr)(ctx)
	if err == nil {
		d.raw = c
	}
	return c, err
}

// ---- micro_warm, lenet5_split: one banked session per measured unit ----

type banked struct {
	env
	m    *nn.Model
	cfg  engine.Options
	prov *provider
	next int
}

// setupBanked builds the model, starts the provider and opens (then
// closes) one session with the workload's options, so set-up time covers
// everything a first request waits for. On micro_warm that includes a
// bank with kits in it (prefill); on lenet5_split a single kit costs more
// than the whole measured window can spare, and set-up stops at the open.
func setupBanked(e env) (system, error) {
	m, err := nn.ByName(e.z.model, nn.ZooConfig{Seed: zooSeed})
	if err != nil {
		return nil, err
	}
	cfg := engineOptions(e.z, e.tr)
	prov, err := startProvider(m, cfg)
	if err != nil {
		return nil, err
	}
	cfg.BankDepth = e.z.kits
	b := &banked{env: e, m: m, cfg: cfg, prov: prov}
	s, err := engine.NewClient(dialer(prov.addr), cfg).OpenSession(context.Background(), m)
	if err != nil {
		prov.stop()
		return nil, fmt.Errorf("opening the set-up session: %w", err)
	}
	if e.z.prefill > 0 && !s.WarmupPreproc(e.z.prefill) {
		s.Close()
		prov.stop()
		return nil, errors.New("the preprocessing plane died during the set-up fill")
	}
	if err := s.Close(); err != nil {
		prov.stop()
		return nil, fmt.Errorf("closing the set-up session: %w", err)
	}
	return b, nil
}

func (b *banked) run(ctx context.Context, rec *recorder, until time.Time) {
	for {
		if err := b.session(ctx, rec); err != nil {
			rec.fail(b.z.kits, err.Error())
			return
		}
		b.digest = nil // the first session is the deterministic prefix
		if !time.Now().Before(until) {
			return
		}
	}
}

// session is one measured unit: open, timed fill of the whole bank
// (the offline phase), drain, one warm inference per kit, close.
func (b *banked) session(ctx context.Context, rec *recorder) error {
	start := time.Now()
	d := &trackedDial{addr: b.prov.addr}
	sp := b.tr.Root("bench.open")
	s, err := engine.NewClient(d.dial, b.cfg).OpenSession(ctx, b.m)
	sp.End()
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	defer s.Close()

	sp = b.tr.Root("bench.fill")
	fillStart := time.Now()
	filled := s.WarmupPreproc(b.z.kits) && s.DrainPreproc()
	fill := time.Since(fillStart)
	sp.End()
	if !filled {
		return errors.New("the preprocessing plane died during the fill")
	}
	// OpenSession reset the raw counters after the set-up exchange and no
	// inference has run, so this is the fill stream alone, mux framing
	// included.
	offline := d.raw.Stats().TotalBytes()
	wire := s.SetupStats().TotalBytes() + offline

	for i := 0; i < b.z.kits; i++ {
		in := b.next
		b.next++
		sp = b.tr.Root("bench.infer")
		t := time.Now()
		res, err := s.Infer(ctx, b.or.input(in))
		lat := time.Since(t)
		sp.End()
		if err != nil {
			return fmt.Errorf("inference: %w", err)
		}
		wire += res.Online.TotalBytes()
		sp = b.tr.Root("bench.verify")
		b.digest.add(res.Logits)
		rec.inference(b.or, in, ms(lat), res.Online, res.Logits)
		sp.End()
	}
	sp = b.tr.Root("bench.close")
	err = s.Close()
	sp.End()
	if err != nil {
		return fmt.Errorf("close: %w", err)
	}
	rec.session(ms(time.Since(start)), wire)
	rec.filled(fill, b.z.kits, offline)
	return nil
}

func (b *banked) close(*recorder) error { return b.prov.stop() }

// ---- fleet_micro: gateway + backends, session churn, cold inferences ----

type fleet struct {
	env
	m        *nn.Model
	cfg      engine.Options
	backends []*provider
	gw       *gateway.Gateway
	gwCancel context.CancelFunc
	gwDone   chan error
	addrs    []string // where session i dials, round robin: the gateway, or for the direct loop each backend in turn
	clients  int
	next     atomic.Int64
}

// setupFleet starts the backends and the gateway and runs one sequential
// session per backend through the gateway, so the measured window starts
// on warm weight-share caches. Those sessions are the deterministic
// prefix the logits digest covers: the concurrent clients' token order,
// and with it their share randomness, depends on timing.
func setupFleet(e env) (system, error) {
	m, err := nn.ByName(e.z.model, nn.ZooConfig{Seed: zooSeed})
	if err != nil {
		return nil, err
	}
	f := &fleet{env: e, m: m, cfg: engineOptions(e.z, e.tr), clients: clientCount()}
	var bks []gateway.Backend
	for i := 0; i < e.z.backends; i++ {
		p, err := startProvider(m, f.cfg)
		if err != nil {
			f.stopBackends()
			return nil, err
		}
		f.backends = append(f.backends, p)
		bks = append(bks, gateway.Backend{Name: fmt.Sprintf("b%d", i), Addr: p.addr})
	}
	f.gw, err = gateway.New(gateway.Config{Backends: bks, Seed: engineSeed, Trace: e.tr})
	if err != nil {
		f.stopBackends()
		return nil, err
	}
	gl, err := transport.NewListener("127.0.0.1:0")
	if err != nil {
		f.stopBackends()
		return nil, err
	}
	f.addrs = []string{gl.Addr()}
	gctx, cancel := context.WithCancel(context.Background())
	f.gwCancel, f.gwDone = cancel, make(chan error, 1)
	go func() { f.gwDone <- f.gw.Serve(gctx, gl); gl.Close() }()

	warm := &recorder{}
	for i := 0; i < e.z.backends; i++ {
		if err := f.session(context.Background(), warm, i, 1); err != nil {
			f.close(nil)
			return nil, fmt.Errorf("warm-up session %d: %w", i, err)
		}
	}
	f.digest = nil
	if warm.failed > 0 {
		f.close(nil)
		return nil, fmt.Errorf("warm-up session failed verification: %s", warm.firstErr)
	}
	f.next.Store(int64(e.z.backends))
	return f, nil
}

// clientCount is the closed-loop client count: never more than the
// processors the run may use.
func clientCount() int { return min(runtime.GOMAXPROCS(0), 2) }

func (f *fleet) run(ctx context.Context, rec *recorder, until time.Time) {
	var wg sync.WaitGroup
	for c := 0; c < f.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(f.next.Add(1) - 1)
				if err := f.session(ctx, rec, idx, f.z.perSession); err != nil {
					rec.fail(f.z.perSession, err.Error())
					return
				}
				if !time.Now().Before(until) {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// session is one measured unit: open through the gateway, n cold
// inferences (triples generated inline), close. No retries: a busy
// refusal surfaces as an error and counts as a failure.
func (f *fleet) session(ctx context.Context, rec *recorder, idx, n int) error {
	start := time.Now()
	sp := f.tr.Root("bench.open")
	s, err := engine.NewClient(dialer(f.addrs[idx%len(f.addrs)]), f.cfg).OpenSession(ctx, f.m)
	sp.End()
	if err != nil {
		return fmt.Errorf("session %d open: %w", idx, err)
	}
	defer s.Close()
	wire := s.SetupStats().TotalBytes()
	for i := 0; i < n; i++ {
		in := idx*n + i
		sp = f.tr.Root("bench.infer")
		t := time.Now()
		res, err := s.Infer(ctx, f.or.input(in))
		lat := time.Since(t)
		sp.End()
		if err != nil {
			return fmt.Errorf("session %d inference %d: %w", idx, i, err)
		}
		wire += res.Online.TotalBytes()
		sp = f.tr.Root("bench.verify")
		f.digest.add(res.Logits)
		rec.inference(f.or, in, ms(lat), res.Online, res.Logits)
		sp.End()
	}
	sp = f.tr.Root("bench.close")
	err = s.Close()
	sp.End()
	if err != nil {
		return fmt.Errorf("session %d close: %w", idx, err)
	}
	rec.session(ms(time.Since(start)), wire)
	return nil
}

func (f *fleet) stopBackends() {
	for _, p := range f.backends {
		p.stop()
	}
}

// close tears the fleet down before reading the gateway's counters, so
// every proxied session has scored.
func (f *fleet) close(rec *recorder) error {
	f.gwCancel()
	err := <-f.gwDone
	f.stopBackends()
	if cause := gatewayFault(f.gw.Stats()); cause != "" && rec != nil {
		rec.fail(1, cause)
	}
	return err
}

// gatewayFault names what the gateway did that it must not do with no
// fault injected: a shed, rerouted or backend-failed session fails the
// run even if every inference came back right (a silent failover
// re-attach does). "" means a clean run.
func gatewayFault(st gateway.Stats) string {
	if st.Shed+st.Reroutes+st.BackendFailures == 0 {
		return ""
	}
	return fmt.Sprintf("gateway shed %d, rerouted %d, saw %d backend failures with no fault injected",
		st.Shed, st.Reroutes, st.BackendFailures)
}

// direct returns the same fleet with sessions dialling the backends
// straight, alternating, for the gateway-overhead comparison.
func (f *fleet) direct() *fleet {
	d := &fleet{env: env{z: f.z, or: f.or}, m: f.m, cfg: f.cfg, clients: f.clients}
	for _, p := range f.backends {
		d.addrs = append(d.addrs, p.addr)
	}
	d.next.Store(f.next.Load())
	return d
}

// ---- lenet5_local_batch: the facade's in-process batched path ----

type localBatch struct {
	env
	m    *aq2pnn.Model
	cfg  aq2pnn.InferenceConfig
	next int
}

// setupLocalBatch builds the model and runs one small warm-up batch, the
// lazy set-up (scratch pools, lane goroutines) a first caller pays.
func setupLocalBatch(e env) (system, error) {
	m, err := aq2pnn.BuildModel(e.z.model, aq2pnn.ZooConfig{Seed: zooSeed})
	if err != nil {
		return nil, err
	}
	l := &localBatch{env: e, m: m}
	l.cfg.CarrierBits = e.z.bits
	l.cfg.Seed = engineSeed
	l.cfg.Trace = e.tr
	digest := l.digest
	l.digest = nil
	warm := &recorder{}
	err = l.batchOf(warm, clientCount())
	l.digest = digest
	if err != nil {
		return nil, fmt.Errorf("warm-up batch: %w", err)
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up batch failed verification: %s", warm.firstErr)
	}
	return l, nil
}

func (l *localBatch) run(_ context.Context, rec *recorder, until time.Time) {
	for {
		if err := l.batchOf(rec, l.z.batch); err != nil {
			rec.fail(l.z.batch, err.Error())
			return
		}
		l.digest = nil // the first batch is the deterministic prefix
		if !time.Now().Before(until) {
			return
		}
	}
}

// batchOf is one measured unit: one SecureInferBatch call (weight
// preparation plus n pipelined images). Per-image latency is not visible
// from outside the call, so each image is booked at the batch's mean.
func (l *localBatch) batchOf(rec *recorder, n int) error {
	xs := make([][]int64, n)
	first := l.next
	for i := range xs {
		xs[i] = l.or.input(l.next)
		l.next++
	}
	sp := l.tr.Root("bench.infer")
	t := time.Now()
	res, err := aq2pnn.SecureInferBatch(l.m, xs, l.cfg)
	wall := time.Since(t)
	sp.End()
	if err != nil {
		return err
	}
	if len(res.Logits) != n {
		return fmt.Errorf("batch returned %d outputs for %d inputs", len(res.Logits), n)
	}
	sp = l.tr.Root("bench.verify")
	for i, logits := range res.Logits {
		l.digest.add(logits)
		rec.inference(l.or, first+i, ms(wall)/float64(n), res.OnlinePerImage, logits)
	}
	sp.End()
	rec.session(ms(wall), res.Setup.TotalBytes()+res.Online.TotalBytes())
	return nil
}

func (l *localBatch) close(*recorder) error { return nil }
