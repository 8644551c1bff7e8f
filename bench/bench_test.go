package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"aq2pnn/internal/gateway"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
)

func stats(bytes, rounds uint64) transport.Stats {
	return transport.Stats{BytesSent: bytes, Rounds: rounds}
}

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"empty", nil, 0.5, 0},
		{"single", []float64{7}, 0.99, 7},
		{"p50 of ten is the fifth", ten, 0.50, 50},
		{"p90 of ten is the ninth", ten, 0.90, 90},
		{"p91 of ten rounds up to the tenth", ten, 0.91, 100},
		{"p99 of ten is the maximum", ten, 0.99, 100},
		{"p10 of ten is the first", ten, 0.10, 10},
		{"tiny p clamps to the first", ten, 0.0001, 10},
		{"p50 of two is the lower", []float64{2, 1}, 0.5, 1},
		{"p50 of three is the middle, unsorted input", []float64{9, 1, 5}, 0.5, 5},
		{"p95 of twenty is the nineteenth", seq(20), 0.95, 19},
		{"p100", ten, 1, 100},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("%s: percentile = %v, want %v", c.name, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	percentile(in, 0.5)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("percentile reordered its input: %v", in)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// Reference values from Python's statistics.median and
// statistics.quantiles(xs, n=4), which the acceptance check uses.
func TestMedianAndQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{1, 2, 3}, 2, 1, 3},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 3.75},
		{[]float64{5, 1, 9, 3, 7}, 5, 2, 8},
		{seq(10), 5.5, 2.75, 8.25},
		{[]float64{2.5, 3.1, 2.9, 3.3, 2.7, 3.0, 2.8, 3.2, 2.6, 3.4}, 2.95, 2.675, 3.225},
	} {
		if got := median(c.xs); math.Abs(got-c.med) > 1e-12 {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is generated from the program's tables; the file at the
// root must be that output, and the tables must satisfy the contract the
// driver checks.
func TestBenchmarkJSONAgreesWithProgram(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the program's tables; regenerate it with: bash bench/run.sh -spec > BENCHMARK.json")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(want))
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside [1,60]", runSeconds)
	}
	if n := len(workloadSpecs); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workload specs, %d workloads", n, len(workloads))
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q breaks the charset", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for i, w := range workloadSpecs {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if workloads[i].spec.Name != w.Name || workloadByName(w.Name) != &workloads[i] {
			t.Errorf("workload table and spec disagree at %d: %s", i, w.Name)
		}
	}
	if n := len(endToEndSpecs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayerSpecs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, m := range endToEndSpecs {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayerSpecs {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
}

// Every workload, untraced and traced, at -quick sizes: each run must end
// in the contract's JSON line carrying exactly the declared metrics,
// finite and unit-tagged as declared, with every output verified.
func TestQuickPassEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload over loopback TCP")
	}
	start := time.Now()
	dir := t.TempDir()
	for _, w := range workloadSpecs {
		for trace, declared := range []map[string]string{units(endToEndSpecs, nil), units(nil, perLayerSpecs)} {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w.Name, "-seed", "4", "-seconds", "0.3", "-quick", "-out", dir}
			if trace == 1 {
				args = append(args, "-trace", "1")
			}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %d: exit %d: %s", w.Name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s trace %d: last line is not JSON: %v", w.Name, trace, err)
			}
			if len(line) != 4 {
				t.Errorf("%s trace %d: result line has %d keys, want correct, attempted, failed, metrics", w.Name, trace, len(line))
			}
			var res contractLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace %d: %d metrics emitted, %d declared", w.Name, trace, len(res.Metrics), len(declared))
			}
			for name, unit := range declared {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: metric %s not emitted", w.Name, trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace %d: metric %s in %q, declared %q", w.Name, trace, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace %d: metric %s is %v", w.Name, trace, name, m.Value)
				case trace == 0 && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.Name, name, m.Value)
				}
			}
			if trace == 1 {
				if pct := res.Metrics["engine.unattributed_pct"].Value; pct >= 1 {
					t.Errorf("%s: %.2f%% of the traced roots is unattributed, want < 1%%", w.Name, pct)
				}
				if _, err := os.Stat(dir + "/" + w.Name + ".trace.json"); err != nil {
					t.Errorf("%s: traced run left no Chrome trace: %v", w.Name, err)
				}
			}
		}
	}
	// The budget is 20 s on the box this was written on; a slower or busier
	// one is not a defect of the program, so the time is reported, not
	// asserted.
	t.Logf("quick pass of %d runs took %v", 2*len(workloadSpecs), time.Since(start).Round(time.Millisecond))
}

// The suite reads each subprocess's full result back from its output.
func TestResultLineRoundTrips(t *testing.T) {
	want := &result{Workload: "fleet_micro", Seed: 7, Attempted: 12, Failed: 1, FirstErr: "x", Digest: "00ff", Unstable: true,
		CalibMs: [2]float64{10, 12}, Rows: []row{{"setup_s", 0.25, "s", 3}}, Extra: []row{{"peak_rss_mb", 30, "MiB", 1}}}
	var out bytes.Buffer
	if err := printRows(&out, want); err != nil {
		t.Fatal(err)
	}
	if err := printContractLine(&out, want); err != nil {
		t.Fatal(err)
	}
	got, err := parseResult(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("read back %+v, printed %+v", got, want)
	}
	if _, err := parseResult([]byte("fleet_micro setup_s 0.25 s n=3\n")); err == nil {
		t.Error("output without a result line parsed")
	}
}

func units(e2e []endToEndSpec, layer []perLayerSpec) map[string]string {
	u := map[string]string{}
	for _, m := range e2e {
		u[m.Name] = m.Unit
	}
	for _, m := range layer {
		u[m.Name] = m.Unit
	}
	return u
}

func TestOracleAndTally(t *testing.T) {
	or := &oracle{want: make([][]int64, inputPool), tolerance: 8}
	or.want[3] = []int64{100, -50}
	var tl tally
	tl.judge(or, 3, []int64{108, -58})           // at the tolerance: passes
	tl.judge(or, 3+inputPool, []int64{100, -50}) // the pool wraps
	tl.judge(or, 3, []int64{109, -50})           // one past it
	tl.judge(or, 3, []int64{100})                // wrong length
	tl.fail(3, "refused: server busy")           // a refused session's inferences
	if tl.attempted != 7 || tl.failed != 5 {
		t.Errorf("attempted %d failed %d, want 7 and 5", tl.attempted, tl.failed)
	}
	if !strings.Contains(tl.firstErr, "miss the plaintext reference") {
		t.Errorf("first cause %q, want the first miss", tl.firstErr)
	}

	a, b := newLogitDigest(), newLogitDigest()
	a.add([]int64{1, -2})
	a.add([]int64{3})
	b.add([]int64{1, -2, 3})
	if a.String() != b.String() {
		t.Error("digest depends on how the logits were batched")
	}
	b.add([]int64{0})
	if a.String() == b.String() {
		t.Error("digest ignores a trailing logit")
	}
	var none *logitDigest
	none.add([]int64{1}) // a nil digest ignores its input
}

// A gateway that shed, rerouted or saw a backend fail with no fault
// injected makes the run incorrect even when every inference verified.
func TestGatewayFaultFailsTheRun(t *testing.T) {
	if cause := gatewayFault(gateway.Stats{Sessions: 40, Probes: 9, ProbeFailures: 1}); cause != "" {
		t.Errorf("clean gateway counters reported as a fault: %s", cause)
	}
	for _, st := range []gateway.Stats{{Sessions: 40, Reroutes: 1}, {Sessions: 40, Shed: 2}, {Sessions: 40, BackendFailures: 1}} {
		cause := gatewayFault(st)
		if cause == "" {
			t.Errorf("%+v: not reported as a fault", st)
			continue
		}
		rec := &recorder{}
		rec.pass()
		rec.fail(1, cause)
		res := &result{}
		res.account(rec)
		if res.correct() || res.Failed != 1 || res.Attempted != 2 || res.FirstErr != cause {
			t.Errorf("%+v: correct=%v attempted=%d failed=%d cause %q", st, res.correct(), res.Attempted, res.Failed, res.FirstErr)
		}
	}
}

func TestRecorderRejectsDriftingOnlineTraffic(t *testing.T) {
	or := &oracle{want: [][]int64{{1}}, tolerance: 0}
	or.want = append(or.want, make([][]int64, inputPool-1)...)
	rec := &recorder{}
	rec.inference(or, 0, 1, stats(100, 3), []int64{1})
	rec.inference(or, 0, 1, stats(100, 3), []int64{1})
	rec.inference(or, 0, 1, stats(101, 3), []int64{1})
	if len(rec.inferMs) != 3 || rec.attempted != 3 || rec.failed != 1 {
		t.Errorf("completed %d attempted %d failed %d, want 3, 3, 1", len(rec.inferMs), rec.attempted, rec.failed)
	}
}

// A root with two children, one of which has a child of its own and
// overlaps its sibling: self times must sum to the root.
func TestFoldSelfTimesSumToRoot(t *testing.T) {
	msec := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []telemetry.SpanRecord{
		{ID: 1, Name: "user.session.infer", Start: 0, End: msec(100)},
		{ID: 2, Parent: 1, Name: "layer.conv1", Start: msec(10), End: msec(60)},
		{ID: 3, Parent: 2, Name: "ot.send.tokens", Start: msec(20), End: msec(50)},
		{ID: 4, Parent: 1, Name: "scm.msb", Start: msec(55), End: msec(90)}, // overlaps layer.conv1 by 5
		{ID: 5, Parent: 1, Name: "something.new", Start: msec(95), End: msec(98)},
		{ID: 6, Name: "provider.session.infer", Start: 0, End: msec(100)}, // not the user's
		{ID: 7, Name: "user.preproc.fill", Start: msec(200), End: msec(260)},
		{ID: 8, Parent: 7, Name: "triple.gilboa", Start: msec(205), End: msec(255)},
	}
	f := foldSpans(spans)
	if f.roots["infer"] != 1 || f.roots["fill"] != 1 || f.rootMs["infer"] != 100 {
		t.Fatalf("roots %v rootMs %v", f.roots, f.rootMs)
	}
	want := map[string]float64{
		layerGlue:       100 - (80 + 3) + (50 - 30), // root self + layer.conv1 self
		layerOTTokens:   30,
		layerSCM:        35,
		layerUnassigned: 3,
	}
	var sum float64
	for layer, v := range f.selfMs["infer"] {
		sum += v
		if math.Abs(v-want[layer]) > 1e-9 {
			t.Errorf("infer self[%s] = %v, want %v", layer, v, want[layer])
		}
	}
	// The overlapping 5 ms is counted by both children: the sum exceeds
	// the root by exactly that, and unattributedPct reports the gap.
	if math.Abs(sum-105) > 1e-9 {
		t.Errorf("self times sum to %v, want 105", sum)
	}
	if got := f.perInference(layerGilboa); math.Abs(got-50) > 1e-9 {
		t.Errorf("gilboa per inference-equivalent = %v, want 50 (one kit)", got)
	}
	if got := f.perInference(layerFill); math.Abs(got-10) > 1e-9 {
		t.Errorf("fill root self = %v, want 10", got)
	}
	// 162 ms attributed (the unknown span's 3 ms left out, the 5 ms
	// overlap counted twice) against 160 ms of roots.
	if got, want := f.unattributedPct(), 100*2.0/160; math.Abs(got-want) > 1e-9 {
		t.Errorf("unattributed = %v%%, want %v%%", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	timing := endToEndSpec{Name: "infer_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}
	rate := endToEndSpec{Name: "throughput_inf_s", Unit: "inf/s", Better: "higher", Bound: 0.10}
	exact := endToEndSpec{Name: "online_bytes_per_inf", Unit: "B", Better: "lower", Bound: 0}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name           string
		m              endToEndSpec
		parent, change []float64
		want           string
	}{
		{"within the bound", timing, steady, []float64{108, 109, 107, 108, 108}, "ok"},
		{"past the bound", timing, steady, []float64{112, 113, 111, 112, 112}, "regressed"},
		{"faster is fine", timing, steady, []float64{50, 51, 49, 50, 50}, "ok"},
		{"past the bound but under the 2 ms floor", timing, []float64{10, 10, 10}, []float64{11.5, 11.5, 11.5}, "ok"},
		{"parent too noisy to tell", timing, []float64{80, 100, 120, 90, 110}, []float64{112, 113, 111, 112, 112}, "unresolved"},
		{"higher is better: a drop regresses", rate, steady, []float64{88, 89, 87, 88, 88}, "regressed"},
		{"higher is better: a rise is fine", rate, steady, []float64{120, 121, 119, 120, 120}, "ok"},
		{"exact and equal", exact, []float64{255013, 255013}, []float64{255013, 255013}, "ok"},
		{"exact, one byte more", exact, []float64{255013, 255013}, []float64{255014, 255014}, "regressed"},
		{"exact, fewer bytes", exact, []float64{255013, 255013}, []float64{255000, 255000}, "ok"},
		{"exact but not repeating", exact, []float64{255013, 255014}, []float64{255013, 255013}, "unresolved"},
		{"nothing to compare", timing, nil, steady, "unresolved"},
	} {
		if got := verdict(c.m, c.parent, c.change); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// -compare must not call a change fine because its clock figures are:
// more failed inferences than the parent regress it, and a run whose
// calibration drifted leaves its workload's timings unresolved.
func TestCompareHonoursFailuresAndUnstableRuns(t *testing.T) {
	suite := func(failed int, unstable bool) *suiteFile {
		f := &suiteFile{Schema: 1}
		for _, w := range workloadSpecs {
			for i := 0; i < suiteRuns; i++ {
				r := &result{Workload: w.Name, Attempted: 100}
				for _, m := range endToEndSpecs {
					r.Rows = append(r.Rows, row{m.Name, 100, m.Unit, 1})
				}
				if w.Name == "fleet_micro" && i == 0 {
					r.Failed, r.Unstable = failed, unstable
				}
				f.Runs = append(f.Runs, r)
			}
			// A traced run's flags do not touch the end-to-end verdicts.
			f.Runs = append(f.Runs, &result{Workload: w.Name, Traced: true, Unstable: true, Failed: 1})
		}
		return f
	}
	write := func(name string, f *suiteFile) string {
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := t.TempDir() + "/" + name
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	clean := write("clean.json", suite(0, false))
	for _, c := range []struct {
		name          string
		parent        string
		change        *suiteFile
		regressed     bool
		want, wantNot string
	}{
		{"identical", clean, suite(0, false), false, "fleet_micro failed ok", "unresolved"},
		{"a failed inference", clean, suite(1, false), true, "fleet_micro failed regressed", "unresolved"},
		{"no more failures than the parent", write("p.json", suite(2, false)), suite(2, false), false, "fleet_micro failed ok", "regressed"},
		{"an unstable run", clean, suite(0, true), false, "fleet_micro infer_ms_p50 unresolved", "micro_warm infer_ms_p50 unresolved"},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, c.parent, write("change.json", c.change))
		if err != nil {
			t.Fatal(err)
		}
		if regressed != c.regressed {
			t.Errorf("%s: regressed = %v, want %v", c.name, regressed, c.regressed)
		}
		if got := columns(out.String()); !strings.Contains(got, c.want) || strings.Contains(got, c.wantNot) {
			t.Errorf("%s: output must hold %q and not %q:\n%s", c.name, c.want, c.wantNot, out.String())
		}
	}
	// The unstable run leaves the exact counts their verdict.
	var out bytes.Buffer
	compareFiles(&out, clean, write("u.json", suite(0, true)))
	if !strings.Contains(columns(out.String()), "fleet_micro online_bytes_per_inf ok") {
		t.Errorf("an unstable run must not unresolve exact counts:\n%s", out.String())
	}
}

// columns rewrites aligned output with single spaces between fields.
func columns(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = strings.Join(strings.Fields(l), " ")
	}
	return strings.Join(lines, "\n")
}
