package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"aq2pnn/internal/telemetry"
)

// row is one reported figure; N is the sample count behind it (1 for a
// ratio or a count taken once).
type row struct {
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
}

// result is everything one run of one workload reports. Rows holds the
// contract's metrics (end-to-end for an untraced run, per-layer for a
// traced one); Extra holds workload-specific figures outside the contract.
type result struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Traced    bool    `json:"traced"`
	Seconds   float64 `json:"seconds"`
	WallS     float64 `json:"wall_s"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	FirstErr  string  `json:"first_error,omitempty"`
	Digest    string  `json:"logits_digest"`
	// Unstable marks a run whose calibration kernel read more than
	// unstableDrift apart before and after: the machine changed under the
	// workload.
	Unstable bool       `json:"unstable"`
	CalibMs  [2]float64 `json:"calib_ms"`
	Rows     []row      `json:"rows"`
	Extra    []row      `json:"extra,omitempty"`
}

func (r *result) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

type runOptions struct {
	seed    uint64
	seconds float64
	traced  bool
	quick   bool
	outDir  string // where the traced run writes its Chrome trace; "" skips it
}

// unstableDrift is how far apart the two calibration readings of a run may
// lie before -compare refuses it a verdict. It is the timing metrics'
// bound: this VM's idle readings alone alternate between 10.9 and 12.5 ms
// (15 %), and a drift smaller than the bound cannot turn a verdict by
// itself. What it catches is the run that shared the machine, one of whose
// readings is 21 ms.
const unstableDrift = 0.25

// procs is the fixed processor count: at most two, however many the box
// has.
func procs() int { return min(runtime.NumCPU(), 2) }

// runWorkload runs one workload in this process. Callers that need
// per-workload memory figures give each workload its own process.
func runWorkload(w *workload, opt runOptions) (*result, error) {
	start := time.Now()
	z := w.full
	if opt.quick {
		z = w.quick
	}
	or, err := newOracleFor(z, opt.seed)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.spec.Name, Seed: opt.seed, Traced: opt.traced, Seconds: opt.seconds}
	calibBefore := calibrate()
	if opt.traced {
		err = runTraced(w, z, or, opt, res)
	} else {
		err = runUntraced(w, z, or, opt, res)
	}
	if err != nil {
		return nil, err
	}
	calibAfter := calibrate()
	res.CalibMs = [2]float64{calibBefore, calibAfter}
	res.Unstable = math.Abs(calibAfter-calibBefore) > unstableDrift*calibBefore
	if opt.traced {
		res.Rows = append(res.Rows, row{"bench.calib_ms", (calibBefore + calibAfter) / 2, "ms", 2})
	}
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// window is what one measured stretch leaves: the recorder, the wall
// time, the bytes allocated and the resident-set samples taken meanwhile.
type window struct {
	rec    *recorder
	wall   time.Duration
	allocB uint64
	rssMiB []float64
}

// measure runs sys for the budget.
func measure(sys system, budget time.Duration) window {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := &recorder{}
	stop := make(chan struct{})
	sampled := make(chan []float64)
	go func() { sampled <- sampleRSS(stop) }()
	start := time.Now()
	sys.run(context.Background(), rec, start.Add(budget))
	wall := time.Since(start)
	close(stop)
	rss := <-sampled
	runtime.ReadMemStats(&after)
	return window{rec: rec, wall: wall, allocB: after.TotalAlloc - before.TotalAlloc, rssMiB: rss}
}

// sampleRSS reads the process's resident set every 20 ms until stop
// closes. The high-water mark alone is one spike away from any value
// (two sessions' largest buffers alive at once, or not); a percentile of
// the samples is what repeats.
func sampleRSS(stop <-chan struct{}) []float64 {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	var rss []float64
	for {
		select {
		case <-stop:
			return rss
		case <-tick.C:
			if v, ok := procStatusMiB("VmRSS:"); ok {
				rss = append(rss, v)
			}
		}
	}
}

// setUp times one set-up of the workload.
func setUp(w *workload, e env) (system, float64, error) {
	t := time.Now()
	sys, err := w.setup(e)
	if err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", w.spec.Name, err)
	}
	return sys, time.Since(t).Seconds(), nil
}

// ready sets the measured system up, after the extra timed set-ups that
// steady setup_s, and runs the unmeasured warm-up unit if the workload
// has one.
func ready(w *workload, e env) (system, []float64, error) {
	var setups []float64
	for i := 0; i < e.z.setupReps; i++ {
		extra := e
		extra.digest = nil
		sys, s, err := setUp(w, extra)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, s)
		if err := sys.close(nil); err != nil {
			return nil, nil, err
		}
	}
	sys, s, err := setUp(w, e)
	if err != nil {
		return nil, nil, err
	}
	setups = append(setups, s)
	if e.z.warmup {
		warm := &recorder{}
		sys.run(context.Background(), warm, time.Now())
		if warm.failed > 0 {
			sys.close(nil)
			return nil, nil, fmt.Errorf("%s warm-up: %s", w.spec.Name, warm.firstErr)
		}
	}
	return sys, setups, nil
}

func (res *result) account(rec *recorder) {
	res.Attempted += rec.attempted
	res.Failed += rec.failed
	if res.FirstErr == "" {
		res.FirstErr = rec.firstErr
	}
}

func runUntraced(w *workload, z sizes, or *oracle, opt runOptions, res *result) error {
	digest := newLogitDigest()
	sys, setups, err := ready(w, env{z: z, or: or, digest: digest})
	if err != nil {
		return err
	}
	win := measure(sys, seconds(opt.seconds))
	if err := sys.close(win.rec); err != nil {
		return err
	}
	rec := win.rec
	res.account(rec)
	res.Digest = digest.String()
	if len(rec.inferMs) == 0 || rec.online == nil {
		return fmt.Errorf("%s completed no inference: %s", w.spec.Name, rec.firstErr)
	}
	done := len(rec.inferMs)
	n := float64(done)
	res.Rows = []row{
		{"setup_s", median(setups), "s", len(setups)},
		{"infer_ms_p50", median(rec.inferMs), "ms", len(rec.inferMs)},
		{"session_ms_p50", median(rec.sessionMs), "ms", len(rec.sessionMs)},
		{"throughput_inf_s", n / win.wall.Seconds(), "inf/s", done},
		{"online_bytes_per_inf", float64(rec.online.TotalBytes()), "B", done},
		{"online_rounds_per_inf", float64(rec.online.Rounds), "count", done},
		{"wire_bytes_per_inf", float64(rec.wire) / n, "B", done},
		{"alloc_kb_per_inf", float64(win.allocB) / 1024 / n, "KiB", done},
		{"rss_mb_p90", percentile(win.rssMiB, 0.9), "MiB", len(win.rssMiB)},
	}
	peak, _ := procStatusMiB("VmHWM:")
	res.Extra = []row{
		{"peak_rss_mb", peak, "MiB", 1},
		{"failed_frac", float64(res.Failed) / float64(max(res.Attempted, 1)), "ratio", res.Attempted},
		{"infer_ms_mean", mean(rec.inferMs), "ms", len(rec.inferMs)},
	}
	if rec.kits > 0 {
		res.Extra = append(res.Extra,
			row{"fill_s_per_kit", median(rec.fillS), "s", len(rec.fillS)},
			row{"offline_bytes_per_kit", float64(rec.offline) / float64(rec.kits), "B", rec.kits})
	}
	return nil
}

// runTraced is the per-layer run: half the budget untraced (the baseline
// tracing's own cost is measured against), half with the tracer and the
// counters on, then the layer replays.
func runTraced(w *workload, z sizes, or *oracle, opt runOptions, res *result) error {
	half := seconds(opt.seconds / 2)
	z.setupReps = 0

	sys, _, err := ready(w, env{z: z, or: or})
	if err != nil {
		return err
	}
	plain := measure(sys, half)
	var direct *window
	if f, ok := sys.(*fleet); ok {
		d := measure(f.direct(), half)
		direct = &d
	}
	if err := sys.close(plain.rec); err != nil {
		return err
	}
	res.account(plain.rec)

	tr := telemetry.New()
	digest := newLogitDigest()
	telemetry.Enable()
	before := telemetry.Default().Counters()
	z.warmup = false // the untraced half warmed the process up
	sys, _, err = ready(w, env{z: z, or: or, tr: tr, digest: digest})
	if err != nil {
		telemetry.Disable()
		return err
	}
	// Counters are differenced over the window only.
	atWindow := telemetry.Default().Counters()
	cut := tr.Root("bench.window")
	traced := measure(sys, half)
	cut.End()
	counts := counterDelta(atWindow, telemetry.Default().Counters())
	err = sys.close(traced.rec)
	telemetry.Disable()
	if err != nil {
		return err
	}
	res.account(traced.rec)
	res.Digest = digest.String()
	if len(traced.rec.inferMs) == 0 {
		return fmt.Errorf("%s completed no traced inference: %s", w.spec.Name, traced.rec.firstErr)
	}

	// Fold the measured window only: set-up and warm-up spans started
	// before the bench.window marker.
	spans := tr.Spans()
	var inWindow []telemetry.SpanRecord
	for i, s := range spans {
		if s.Name == "bench.window" {
			inWindow = spans[i+1:]
			break
		}
	}
	f := foldSpans(inWindow)
	all := counterDelta(before, telemetry.Default().Counters())

	res.Rows = ledgerRows(f, counts, all, plain.rec, traced.rec)

	sized := fullReplay
	if opt.quick {
		sized = quickReplay
	}
	replayRows, err := replays(z, sized, tr)
	if err != nil {
		return err
	}
	res.Rows = append(res.Rows, replayRows...)
	overhead := row{"gateway.overhead_ms", 0, "ms", 0}
	if direct != nil {
		overhead.Value = median(plain.rec.inferMs) - median(direct.rec.inferMs)
		overhead.N = len(direct.rec.inferMs)
		res.account(direct.rec)
	}
	res.Rows = append(res.Rows, overhead)

	if opt.outDir != "" {
		if err := writeTrace(filepath.Join(opt.outDir, w.spec.Name+".trace.json"), tr); err != nil {
			return err
		}
	}
	return nil
}

// ledgerRows turns the traced window into the per-layer rows: span self
// times per inference-equivalent, then the exact counts. window holds the
// counter deltas over the measured window, whole those since the traced
// set-up began (cache and gateway counters move during set-up too).
func ledgerRows(f *fold, window, whole map[string]uint64, plain, traced *recorder) []row {
	infers, kits, opens := f.roots["infer"], f.roots["fill"], f.roots["open"]
	done := len(traced.inferMs)
	perInf := func(counter string) float64 { return float64(window[counter]) / float64(done) }
	lookups := int(whole["aq2pnn_weight_cache_hits_total"] + whole["aq2pnn_weight_cache_misses_total"])
	return []row{
		{"engine.glue_self_ms", f.perInference(layerGlue), "ms", infers},
		{"engine.open_ms", perRoot(f.rootMs["open"], opens), "ms", opens},
		{"engine.exchange_shares_ms", f.perOpen(layerShares), "ms", opens},
		{"secure.linear_self_ms", f.perInference(layerLinear), "ms", infers},
		{"secure.nonlinear_self_ms", f.perInference(layerNonlinear), "ms", infers},
		{"scm.self_ms", f.perInference(layerSCM), "ms", infers},
		{"ot.tokens_self_ms", f.perInference(layerOTTokens), "ms", infers},
		{"ot.ext_self_ms", f.perInference(layerOTExt), "ms", infers + kits},
		{"triple.gilboa_self_ms", f.perInference(layerGilboa), "ms", infers + kits},
		{"preproc.fill_ms_per_kit", perRoot(f.rootMs["fill"], kits), "ms", kits},
		{"preproc.ack_self_ms", f.perInference(layerAck), "ms", kits},
		{"preproc.offline_bytes_per_kit", perRoot(float64(f.fillBytes), kits), "B", kits},
		{"engine.unattributed_pct", f.unattributedPct(), "%", infers + kits},
		{"engine.infer_ms_p95", tailP95(plain.inferMs), "ms", len(plain.inferMs)},
		{"telemetry.trace_overhead_pct", overheadPct(plain.inferMs, traced.inferMs), "%", len(traced.inferMs)},
		{"transport.msgs_per_inf", perRoot(float64(f.msgs), infers), "count", infers},
		{"ot.send_insts_per_inf", perInf("aq2pnn_ot_send_insts_total"), "count", done},
		{"ot.recv_insts_per_inf", perInf("aq2pnn_ot_recv_insts_total"), "count", done},
		{"triple.consumed_per_inf", perInf("aq2pnn_triples_consumed_total"), "count", done},
		{"triple.muls_per_inf", perInf("aq2pnn_triple_muls_total"), "count", done},
		{"a2b.splits_per_inf", perInf("aq2pnn_a2b_splits_total"), "count", done},
		{"preproc.starvations", float64(window["aq2pnn_preproc_starvation_total"]), "count", done},
		{"engine.weight_cache_hit_ratio", perRoot(float64(whole["aq2pnn_weight_cache_hits_total"]), lookups), "ratio", lookups},
		{"gateway.sessions", float64(whole["aq2pnn_gateway_sessions_total"]), "count", 1},
		{"gateway.reroutes", float64(whole["aq2pnn_gateway_reroutes_total"]), "count", 1},
		{"gateway.shed", float64(whole["aq2pnn_gateway_sessions_shed_total"]), "count", 1},
		{"gateway.backend_failures", float64(whole["aq2pnn_gateway_backend_failures_total"]), "count", 1},
	}
}

func perRoot(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// tailP95 is the diagnostic tail; below 20 samples not even one lies
// beyond it, and it reads 0.
func tailP95(xs []float64) float64 {
	if len(xs) < 20 {
		return 0
	}
	return percentile(xs, 0.95)
}

func overheadPct(plain, traced []float64) float64 {
	p := median(plain)
	if p == 0 {
		return 0
	}
	return 100 * (median(traced) - p) / p
}

func counterDelta(before, after map[string]uint64) map[string]uint64 {
	d := make(map[string]uint64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func writeTrace(path string, tr *telemetry.Tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
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

// procStatusMiB reads one kB-valued field of /proc/self/status. Each
// workload runs in its own process, so the figures are the workload's own.
func procStatusMiB(field string) (float64, bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}

// calibrate times a fixed 256³ uint64 matrix product written here, not in
// the program under test: a reading of the machine, taken before and
// after each workload.
func calibrate() float64 {
	const n = 256
	a := make([]uint64, n*n)
	b := make([]uint64, n*n)
	c := make([]uint64, n*n)
	for i := range a {
		a[i] = uint64(i)*2654435761 + 1
		b[i] = uint64(i)*40503 + 7
	}
	// Collect what the workload left behind first, or a background
	// collection lands inside the reading.
	runtime.GC()
	best := 0.0
	for rep := 0; rep < 10; rep++ {
		for i := range c {
			c[i] = 0
		}
		t := time.Now()
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				aik := a[i*n+k]
				for j := 0; j < n; j++ {
					c[i*n+j] += aik * b[k*n+j]
				}
			}
		}
		if d := ms(time.Since(t)); rep == 0 || d < best {
			best = d
		}
	}
	calibSink = c[n+1]
	return best
}

// calibSink keeps the compiler from discarding the calibration product.
var calibSink uint64
