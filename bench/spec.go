package main

import (
	"bytes"
	"encoding/json"
)

// The benchmark's contract, in one place: BENCHMARK.json is generated from
// these tables (go run . -spec), the program emits exactly these names, and
// the test asserts that file and program agree.

// runSeconds is how long one run's measured window lasts by default.
const runSeconds = 15

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// Workload names are normative: later issues cite them.
var workloadSpecs = []workloadSpec{
	{"micro_warm", "Micro, 16-bit, banked session on loopback TCP, 1 client: the online path at tiny tensors, where rounds, per-frame cost and per-inference base OT dominate and GEMM is negligible."},
	{"lenet5_split", "LeNet5, 16-bit, banked session: timed kit fill (IKNP + Gilboa + bulk frames) then warm inferences (token bandwidth), so offline and online gains show on different metrics."},
	{"fleet_micro", "Gateway + 2 backends, Micro, no bank, 2 closed-loop clients churning sessions of 3 cold inferences: handshake, codec, weight cache, routing and inline triples under contention."},
	{"lenet5_local_batch", "LeNet5 on a 32-bit carrier through SecureInferBatch over in-process pipes with dealer triples: compute bound (GEMM, im2col, SCM tokens, PRG), no socket, no IKNP."},
}

// End-to-end metrics: what a user of the system sees, on every workload.
// Bounds are the share of the parent's median a metric may worsen by;
// exact counts get 0. Ten-run quartile spreads of the timings reach
// 17–22 % on the 2-vCPU box this was written on, so those bounds sit at
// the contract's cap of 25 %, not at three times the spread; allocation
// and RSS repeat to well within a third of theirs (README.md, "Bounds and
// measured steadiness", has the figures).
var endToEndSpecs = []endToEndSpec{
	{"setup_s", "s", "lower", 0.25},
	{"infer_ms_p50", "ms", "lower", 0.25},
	{"session_ms_p50", "ms", "lower", 0.25},
	{"throughput_inf_s", "inf/s", "higher", 0.25},
	{"online_bytes_per_inf", "B", "lower", 0},
	{"online_rounds_per_inf", "count", "lower", 0},
	{"wire_bytes_per_inf", "B", "lower", 0},
	{"alloc_kb_per_inf", "KiB", "lower", 0.05},
	{"rss_mb_p90", "MiB", "lower", 0.15},
}

// Per-layer metrics: the ledger under the end-to-end figures, from the
// traced run (span self times and counters) and the layer replays. A
// metric a workload does not exercise reads 0 there.
var perLayerSpecs = []perLayerSpec{
	// (a) span self time per inference-equivalent, user party.
	{"engine.glue_self_ms", "ms", "lower"},
	{"engine.open_ms", "ms", "lower"},
	{"engine.exchange_shares_ms", "ms", "lower"},
	{"secure.linear_self_ms", "ms", "lower"},
	{"secure.nonlinear_self_ms", "ms", "lower"},
	{"scm.self_ms", "ms", "lower"},
	{"ot.tokens_self_ms", "ms", "lower"},
	{"ot.ext_self_ms", "ms", "lower"},
	{"triple.gilboa_self_ms", "ms", "lower"},
	{"preproc.fill_ms_per_kit", "ms", "lower"},
	{"preproc.ack_self_ms", "ms", "lower"},
	{"preproc.offline_bytes_per_kit", "B", "lower"},
	{"engine.unattributed_pct", "%", "lower"},
	{"engine.infer_ms_p95", "ms", "lower"},
	{"telemetry.trace_overhead_pct", "%", "lower"},
	// counts from the traced run, per inference unless the name says otherwise.
	{"transport.msgs_per_inf", "count", "lower"},
	{"ot.send_insts_per_inf", "count", "lower"},
	{"ot.recv_insts_per_inf", "count", "lower"},
	{"triple.consumed_per_inf", "count", "lower"},
	{"triple.muls_per_inf", "count", "lower"},
	{"a2b.splits_per_inf", "count", "lower"},
	{"preproc.starvations", "count", "lower"},
	{"engine.weight_cache_hit_ratio", "ratio", "higher"},
	{"gateway.sessions", "count", "higher"},
	{"gateway.reroutes", "count", "lower"},
	{"gateway.shed", "count", "lower"},
	{"gateway.backend_failures", "count", "lower"},
	// (b) layer replays at the workload's shapes, timed from outside.
	{"tensor.gemm_ms_per_inf", "ms", "lower"},
	{"tensor.im2col_ms_per_inf", "ms", "lower"},
	{"scm.tokens_ms_per_inf", "ms", "lower"},
	{"a2b.split_ns_per_elem", "ns", "lower"},
	{"prg.fill_ns_per_elem", "ns", "lower"},
	{"ot.tokens_ms_per_inf", "ms", "lower"},
	{"ot.ext_us_per_inst", "us", "lower"},
	{"ot.baseot_ms_demo", "ms", "lower"},
	{"ot.baseot_ms_prod", "ms", "lower"},
	{"triple.gilboa_ms_per_kit", "ms", "lower"},
	{"transport.frame_us_small", "us", "lower"},
	{"transport.mux_us_small", "us", "lower"},
	{"transport.elems_mb_s", "MB/s", "higher"},
	{"gateway.overhead_ms", "ms", "lower"},
	{"bench.calib_ms", "ms", "lower"},
}

// benchmarkJSON renders the contract file. The command goes through
// run.sh so the build cache and the binary stay inside the checkout.
func benchmarkJSON() ([]byte, error) {
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []endToEndSpec `json:"end_to_end"`
		PerLayer   []perLayerSpec `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEndSpecs,
		PerLayer:   perLayerSpecs,
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
