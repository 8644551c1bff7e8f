// Command sessionbench measures the persistent-session protocol's
// steady-state cost: it starts an in-process provider, opens one session
// over real localhost TCP, streams -n inferences and reports the setup
// vs per-inference wire split as JSON.
//
//	sessionbench -model micro -bits 16 -n 8 -trace session-trace.json
//
// With -bench-out it additionally runs the warm-vs-cold comparison of the
// asynchronous preprocessing plane: one cold pass (bank disabled, triple
// generation inline on the online path) and one warm pass (bank enabled
// and pre-filled), writing both passes' latency percentiles and wire
// costs to the named JSON file. The comparison is itself a gate: the
// warm online p50 must be strictly below the cold one, or the run fails.
//
// It doubles as the CI gate for the session-mode contract: the run fails
// (exit 1) if any setup bytes are paid during steady state — the
// session's setup ledger must not grow after open, and every inference's
// online traffic must be byte-identical to the first. The optional
// -trace artifact is tracecheck-compatible, so CI re-verifies the
// per-span attribution (and the no-setup-under-infer-roots and
// no-generation-under-warm-infer-roots rules) on the exported file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"aq2pnn/internal/engine"
	"aq2pnn/internal/nn"
	"aq2pnn/internal/ot"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
)

// passReport is one session's measurement: a cold pass (BankDepth 0) or a
// warm pass (preprocessing plane enabled and pre-filled).
type passReport struct {
	BankDepth int `json:"bank_depth"`
	// SetupBytes is the session-open cost (handshake, weight shares, F
	// openings), paid once.
	SetupBytes uint64 `json:"setup_bytes"`
	// SteadySetupBytes is how much the setup ledger grew during steady
	// state. The session contract pins it to zero; nonzero fails the run.
	SteadySetupBytes uint64 `json:"steady_setup_bytes"`
	// OnlineBytesPerInference is one inference's exact wire cost on the
	// online stream, byte-identical across the stream (fill-stream traffic
	// is accounted separately by the mux).
	OnlineBytesPerInference uint64 `json:"online_bytes_per_inference"`
	OnlineRounds            uint64 `json:"online_rounds"`
	// AmortizedBytesPerInference is (setup + n·online) / n.
	AmortizedBytesPerInference uint64  `json:"amortized_bytes_per_inference"`
	OpenMillis                 int64   `json:"open_ms"`
	InferMillisP50             float64 `json:"infer_ms_p50"`
	InferMillisP99             float64 `json:"infer_ms_p99"`
	InferMillisMean            float64 `json:"infer_ms_mean"`
}

type report struct {
	Model       string `json:"model"`
	CarrierBits uint   `json:"carrier_bits"`
	Inferences  int    `json:"inferences"`
	passReport
}

// benchReport is the -bench-out artifact: both passes side by side.
type benchReport struct {
	Model       string     `json:"model"`
	CarrierBits uint       `json:"carrier_bits"`
	Inferences  int        `json:"inferences"`
	Cold        passReport `json:"cold"`
	Warm        passReport `json:"warm"`
	// WarmP50Speedup is cold p50 / warm p50 — the gated claim.
	WarmP50Speedup float64 `json:"warm_p50_speedup"`
}

// percentile returns the nearest-rank percentile of the sorted durations
// in milliseconds: the smallest value with at least p·n observations at or
// below it, i.e. index ⌈p·n⌉−1.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return float64(sorted[rank]) / float64(time.Millisecond)
}

// runPass opens one session against the serving loop behind dial, streams
// n inferences and enforces the steady-state gates. With a warm
// configuration (BankDepth > 0) it pre-fills the bank before the first
// measured inference, so the latencies are steady-state warm numbers, not
// first-fill waits.
func runPass(ctx context.Context, dial engine.Redial, m *nn.Model, cfg engine.Options, n int) (passReport, error) {
	var rep passReport
	rep.BankDepth = cfg.BankDepth
	x := make([]int64, m.InputShape().Numel())
	for i := range x {
		x[i] = int64((i*13)%23) - 11
	}
	openStart := time.Now()
	s, err := engine.NewClient(dial, cfg).OpenSession(ctx, m)
	if err != nil {
		return rep, err
	}
	defer s.Close()
	if cfg.BankDepth > 0 {
		// Provision the bank up front, then quiesce the filler: the measured
		// loop consumes banked kits with no background fill competing for
		// the same cores. This is the offline/online split the plane exists
		// for — generation paid during idle (here, folded into open_ms),
		// online latency measured pure.
		if !s.WarmupPreproc(n) {
			return rep, fmt.Errorf("preprocessing plane died during warm-up")
		}
		if !s.DrainPreproc() {
			return rep, fmt.Errorf("preprocessing plane died before the drain")
		}
	}
	rep.OpenMillis = time.Since(openStart).Milliseconds()
	setup := s.SetupStats()
	rep.SetupBytes = setup.TotalBytes()

	var online []transport.Stats
	durs := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		res, err := s.Infer(ctx, x)
		if err != nil {
			return rep, fmt.Errorf("inference %d: %w", i, err)
		}
		durs = append(durs, time.Since(start))
		online = append(online, res.Online)
	}
	//lint:allow ringmask byte-count metric arithmetic, not ring shares
	rep.SteadySetupBytes = s.SetupStats().TotalBytes() - setup.TotalBytes()
	if err := s.Close(); err != nil {
		return rep, err
	}

	rep.OnlineBytesPerInference = online[0].TotalBytes()
	rep.OnlineRounds = online[0].Rounds
	//lint:allow ringmask byte-count metric arithmetic, not ring shares
	rep.AmortizedBytesPerInference = (rep.SetupBytes + uint64(n)*rep.OnlineBytesPerInference) / uint64(n)
	var total time.Duration
	for _, d := range durs {
		total += d
	}
	rep.InferMillisMean = float64(total/time.Duration(n)) / float64(time.Millisecond)
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	rep.InferMillisP50 = percentile(durs, 0.50)
	rep.InferMillisP99 = percentile(durs, 0.99)

	// The CI gates: steady state must be online-only and byte-identical.
	if rep.SteadySetupBytes != 0 {
		return rep, fmt.Errorf("steady state paid %d setup bytes, want 0", rep.SteadySetupBytes)
	}
	for i := 1; i < len(online); i++ {
		if online[i] != online[0] {
			return rep, fmt.Errorf("inference %d online %+v differs from inference 0 %+v, want byte-identical",
				i, online[i], online[0])
		}
	}
	return rep, nil
}

func run() error {
	model := flag.String("model", "micro", "zoo model")
	bits := flag.Uint("bits", 16, "carrier ring bit-width")
	seed := flag.Uint64("seed", 9, "shared randomness seed")
	n := flag.Int("n", 8, "inferences to stream over the session")
	realGroup := flag.Bool("real-group", false, "use the production 512-bit OT group instead of the fast demo group")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file")
	benchOut := flag.String("bench-out", "", "run the warm-vs-cold preprocessing comparison and write its JSON report here")
	bankDepth := flag.Int("bank-depth", 0, "preprocessing bank depth (0 disables the plane; -bench-out defaults it to -n)")
	fillWorkers := flag.Uint("fill-workers", 1, "preprocessing filler worker cap")
	fillWatermark := flag.Uint("fill-watermark", 0, "how many inferences ahead the filler runs (0 = full bank depth)")
	flag.Parse()
	if *n < 2 {
		return fmt.Errorf("-n must be at least 2 (steady state needs more than one inference)")
	}

	m, err := nn.ByName(*model, nn.ZooConfig{Seed: *seed})
	if err != nil {
		return err
	}
	cfg := engine.Options{CarrierBits: *bits, Seed: *seed}
	if !*realGroup {
		cfg.Group = ot.TestGroup()
	}

	l, err := transport.NewListener("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sessions := 1
	if *benchOut != "" {
		sessions = 2 // one cold, one warm
	}
	reg := engine.NewRegistry()
	if err := reg.Add(m); err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- engine.ServeRegistryTCP(ctx, l, reg, cfg, sessions, nil) }()
	dial := func(ctx context.Context) (transport.Conn, error) {
		return transport.DialContext(ctx, l.Addr(), 10*time.Second)
	}

	ccfg := cfg
	ccfg.BankDepth = *bankDepth
	ccfg.FillWorkers = *fillWorkers
	ccfg.FillWatermark = *fillWatermark
	if *tracePath != "" {
		ccfg.Trace = telemetry.New()
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if *benchOut == "" {
		pass, err := runPass(ctx, dial, m, ccfg, *n)
		if err != nil {
			return err
		}
		if err := enc.Encode(report{Model: m.Name, CarrierBits: *bits, Inferences: *n, passReport: pass}); err != nil {
			return err
		}
		if err := writeTrace(*tracePath, ccfg.Trace); err != nil {
			return err
		}
		return <-serveErr
	}

	// Warm-vs-cold comparison. The cold pass runs untraced with the plane
	// off; the warm pass carries the trace (its artifact is the one that
	// must show empty-of-generation infer roots) with a bank deep enough
	// that every measured inference consumes a pre-filled kit.
	coldCfg := ccfg
	coldCfg.BankDepth = 0
	coldCfg.Trace = nil
	cold, err := runPass(ctx, dial, m, coldCfg, *n)
	if err != nil {
		return fmt.Errorf("cold pass: %w", err)
	}
	warmCfg := ccfg
	if warmCfg.BankDepth <= 0 {
		warmCfg.BankDepth = *n
	}
	warm, err := runPass(ctx, dial, m, warmCfg, *n)
	if err != nil {
		return fmt.Errorf("warm pass: %w", err)
	}
	if err := <-serveErr; err != nil {
		return fmt.Errorf("provider: %w", err)
	}

	bench := benchReport{Model: m.Name, CarrierBits: *bits, Inferences: *n, Cold: cold, Warm: warm}
	if warm.InferMillisP50 > 0 {
		bench.WarmP50Speedup = cold.InferMillisP50 / warm.InferMillisP50
	}
	if err := enc.Encode(bench); err != nil {
		return err
	}
	f, err := os.Create(*benchOut)
	if err != nil {
		return err
	}
	benc := json.NewEncoder(f)
	benc.SetIndent("", "  ")
	if err := benc.Encode(bench); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// Print the committed headline figure so the number quoted in the docs
	// is always the one this run actually wrote to -bench-out.
	fmt.Fprintf(os.Stderr, "sessionbench: warm p50 speedup %.2f× (cold %.2fms / warm %.2fms) committed to %s\n",
		bench.WarmP50Speedup, cold.InferMillisP50, warm.InferMillisP50, *benchOut)
	if err := writeTrace(*tracePath, ccfg.Trace); err != nil {
		return err
	}

	// The preprocessing plane's headline gate: with a warm bank, the
	// steady-state online latency must strictly beat the cold path's.
	if warm.InferMillisP50 >= cold.InferMillisP50 {
		return fmt.Errorf("warm online p50 %.3fms not strictly below cold %.3fms",
			warm.InferMillisP50, cold.InferMillisP50)
	}
	return nil
}

func writeTrace(path string, tr *telemetry.Tracer) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, tr); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sessionbench: trace written to %s\n", path)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sessionbench:", err)
		os.Exit(1)
	}
}
