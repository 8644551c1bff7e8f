// Command party runs one side of a two-process AQ2PNN deployment over
// TCP, emulating the paper's two-board setup: start the model provider
// first, then the user.
//
//	party -role provider -listen :7541 -model lenet5 -bits 16
//	party -role user     -connect localhost:7541 -model lenet5 -bits 16
//
// Both processes must agree on -model, -bits and -seed (the architecture
// and quantization metadata are public). The provider's weights are
// secret-shared over the wire; the user's input never leaves its process
// unmasked. The offline phase runs real base OTs and Gilboa triples —
// pass -demo-group to use the small fast group (NOT cryptographically
// strong) for quick demonstrations. The provider serves -sessions
// concurrent clients (0 = serve forever); -workers caps each side's
// local compute parallelism (0 = all CPUs).
//
// Sessions (see docs/sessions.md): the user opens one session and
// streams -inferences inferences over it, paying the setup (weight
// shares, triple preparation) exactly once. The provider's -model flag
// accepts a comma-separated list — each connecting client names its
// model in the handshake and is dispatched against the registry.
//
// Preprocessing (see docs/preprocessing.md): the user's -bank-depth
// enables the asynchronous preprocessing plane — a second multiplexed
// stream over the same connection on which paired background fillers
// pre-generate each upcoming inference's triple/OT material, taking the
// generation cost off the online path. The filler runs -bank-depth ahead
// on the -workers pool.
//
// Fault tolerance (see docs/robustness.md): both roles exchange a
// versioned handshake before any setup material crosses the wire, so a
// -model/-bits/-seed disagreement fails fast with a typed error on both
// processes. The user retries transiently failed sessions (-retries,
// -retry-base) — an open session re-attaches to the provider's parked
// state through its resumption token instead of replaying setup; the
// provider bounds each session with -session-timeout and, on
// SIGINT/SIGTERM, drains in-flight sessions for -drain-grace before
// exiting.
//
// Observability (see docs/observability.md): -trace out.json records a
// span per phase, layer and secure operator with its exact share of the
// wire traffic and writes a Chrome trace-event file on exit; -metrics
// :9090 serves /metrics and /debug/pprof for the process lifetime
// (loopback only unless an interface address is given).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"aq2pnn/internal/engine"
	"aq2pnn/internal/nn"
	"aq2pnn/internal/ot"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
)

func main() {
	role := flag.String("role", "", "provider | user")
	listen := flag.String("listen", ":7541", "provider listen address")
	connect := flag.String("connect", "localhost:7541", "user dial address")
	model := flag.String("model", "lenet5", "zoo model (must match the peer); provider: comma-separated list to serve several")
	bits := flag.Uint("bits", 16, "carrier ring bit-width")
	seed := flag.Uint64("seed", 7, "shared randomness seed (must match the peer)")
	demoGroup := flag.Bool("demo-group", false, "use the fast demo OT group (NOT secure)")
	workers := flag.Uint("workers", 0, "local compute parallelism (0 = all CPUs)")
	sessions := flag.Uint("sessions", 1, "provider: sessions to serve before exiting (0 = forever)")
	inferences := flag.Uint("inferences", 1, "user: inferences to stream over the session")
	retries := flag.Uint("retries", 2, "user: extra attempts after a transient session failure")
	retryBase := flag.Duration("retry-base", 100*time.Millisecond, "user: first retry backoff delay")
	sessionTimeout := flag.Duration("session-timeout", 0, "bound one session attempt end to end (0 = none)")
	drainGrace := flag.Duration("drain-grace", 5*time.Second, "provider: let in-flight sessions finish this long after SIGINT/SIGTERM")
	maxSessions := flag.Int("max-sessions", 0, "provider: cap on concurrent sessions; excess connections are shed with a transient busy-reject (0 = unlimited)")
	idleTimeout := flag.Duration("idle-timeout", 0, "provider: cut sessions whose peer stalls mid-frame longer than this (0 = no slow-loris defence)")
	memBudget := flag.Uint64("mem-budget", 0, "provider: per-session receive-memory budget in bytes; peers declaring past it are rejected before allocation (0 = unlimited)")
	handshakeTimeout := flag.Duration("handshake-timeout", 0, "bound the hello and attach exchange (0 = 30s default, negative = none)")
	sessionCache := flag.Int("session-cache", 0, "provider: detached sessions kept resumable (0 = default 64, negative = disable resumption)")
	bankDepth := flag.Int("bank-depth", 0, "user: enable the asynchronous preprocessing plane with a kit bank this deep (0 = off; see docs/preprocessing.md)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file on exit")
	metrics := flag.String("metrics", "", "serve /metrics and /debug/pprof on this address (e.g. :9090; loopback unless a host is given)")
	flag.Parse()

	cfg := engine.Options{
		CarrierBits: *bits, Seed: *seed, Workers: *workers,
		Retries: *retries, RetryBase: *retryBase,
		SessionTimeout: *sessionTimeout, DrainGrace: *drainGrace,
		MaxConcurrentSessions: *maxSessions, IdleTimeout: *idleTimeout,
		MemBudget: *memBudget, HandshakeTimeout: *handshakeTimeout,
		SessionCache: *sessionCache,
		BankDepth:    *bankDepth,
	}
	if *demoGroup {
		cfg.Group = ot.TestGroup()
	}
	if *tracePath != "" || *metrics != "" {
		telemetry.Enable()
	}
	if *tracePath != "" {
		cfg.Trace = telemetry.New()
	}
	if *metrics != "" {
		bound, stop, err := telemetry.StartMetricsServer(*metrics, telemetry.Default())
		if err != nil {
			fmt.Fprintln(os.Stderr, "party: metrics endpoint:", err)
			os.Exit(1)
		}
		defer stop()
		fmt.Printf("metrics: http://%s/metrics (pprof at /debug/pprof)\n", bound)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *role, *listen, *connect, *model, cfg, int(*sessions), int(*inferences)); err != nil {
		fmt.Fprintln(os.Stderr, "party:", err)
		os.Exit(1)
	}
	if *tracePath != "" {
		if err := writeTrace(*tracePath, cfg.Trace); err != nil {
			fmt.Fprintln(os.Stderr, "party:", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d spans written to %s (open at chrome://tracing)\n",
			len(cfg.Trace.Spans()), *tracePath)
		fmt.Print(telemetry.LayerTable(cfg.Trace).String())
	}
}

func writeTrace(path string, tr *telemetry.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(ctx context.Context, role, listen, connect, model string, cfg engine.Options, sessions, inferences int) error {
	switch role {
	case "provider":
		return serve(ctx, listen, strings.Split(model, ","), cfg, sessions)
	case "user":
		m, err := nn.ByName(model, nn.ZooConfig{Seed: cfg.Seed})
		if err != nil {
			return err
		}
		return infer(ctx, connect, m, cfg, inferences)
	default:
		return fmt.Errorf("-role must be provider or user")
	}
}

func serve(ctx context.Context, listen string, models []string, cfg engine.Options, sessions int) error {
	reg := engine.NewRegistry()
	for _, name := range models {
		m, err := nn.ByName(strings.TrimSpace(name), nn.ZooConfig{Seed: cfg.Seed})
		if err != nil {
			return err
		}
		if _, err := cfg.Carrier(m); err != nil {
			return err
		}
		if err := reg.Add(m); err != nil {
			return err
		}
	}
	fmt.Printf("provider: %s, %d-bit carrier, waiting on %s\n", strings.Join(models, ", "), cfg.CarrierBits, listen)
	l, err := transport.NewListener(listen)
	if err != nil {
		return err
	}
	defer l.Close()
	start := time.Now()
	n := 0
	err = engine.ServeRegistryTCP(ctx, l, reg, cfg, sessions, func(err error) {
		n++
		if err != nil {
			fmt.Printf("provider: session %d failed: %v\n", n, err)
			return
		}
		fmt.Printf("provider: session %d served (%v elapsed)\n", n, time.Since(start))
	})
	if err != nil {
		return err
	}
	fmt.Printf("provider done in %v: %d session(s)\n", time.Since(start), n)
	return nil
}

func infer(ctx context.Context, connect string, m *nn.Model, cfg engine.Options, inferences int) error {
	fmt.Printf("user: %s, %d-bit carrier, dialing %s\n", m.Name, cfg.CarrierBits, connect)
	dial := func(ctx context.Context) (transport.Conn, error) {
		return transport.DialContext(ctx, connect, 30*time.Second)
	}
	n := m.InputShape().Numel()
	input := func(round int) []int64 {
		x := make([]int64, n)
		for i := range x {
			x[i] = int64((i*13+round)%23) - 11
		}
		return x
	}
	start := time.Now()
	s, err := engine.NewClient(dial, cfg).OpenSession(ctx, m)
	if err != nil {
		return classifyUserErr(err)
	}
	defer s.Close()
	fmt.Printf("session open in %v (setup %.3f MiB)\n", time.Since(start), s.SetupStats().MiB())
	for i := 0; i < inferences; i++ {
		t0 := time.Now()
		res, err := s.Infer(ctx, input(i))
		if err != nil {
			return classifyUserErr(err)
		}
		fmt.Printf("inference %d in %v: class %d, online %.3f MiB (%d rounds)\n",
			i, time.Since(t0), res.Class, res.Online.MiB(), res.Online.Rounds)
	}
	fmt.Printf("user done in %v: %d inference(s), setup paid once (%.3f MiB)\n",
		time.Since(start), inferences, s.SetupStats().MiB())
	return nil
}

func classifyUserErr(err error) error {
	if transport.IsTransient(err) {
		return fmt.Errorf("%w (transient: the provider may be down; retry budget exhausted)", err)
	}
	return err
}
