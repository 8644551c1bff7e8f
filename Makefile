GO ?= go

# The vettool binary is cached here; `go build` is a no-op when the lint
# sources are unchanged, so repeat `make lint` runs pay only for go vet.
LINTBIN ?= bin/aq2pnnlint

.PHONY: build test race vet lint lintbin bench-module bench bench-matmul bench-batch bench-session bench-preproc bench-online bench-gateway benchgate chaos chaos-fleet fuzz ci

# Per-target budget for `make fuzz`; CI uses 30s per target on PRs.
FUZZTIME ?= 60s

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race detector slows the protocol tests ~10x; give the slowest
# package (internal/engine) headroom beyond the default 10m.
race:
	$(GO) test -race -timeout 30m ./...

vet:
	$(GO) vet ./...

# bench/ is its own module (BENCHMARK.json builds it from the checkout), so
# the root ./... never compiles it: an engine API change can break the
# benchmark while build, vet and test all stay green. This target is the
# gate.
bench-module:
	cd bench && $(GO) vet . && $(GO) test .

lintbin:
	$(GO) build -o $(LINTBIN) ./cmd/aq2pnnlint

# Project invariants (ring reduction, PRG-only randomness, transport error
# discipline, ...) via the aq2pnnlint analyzer suite. See DESIGN.md,
# "Static invariants".
lint: lintbin
	$(GO) vet -vettool=$(LINTBIN) ./...

# Serial-vs-parallel GEMM kernel on the 32-bit ring (512x512x512).
bench-matmul:
	$(GO) test ./internal/tensor/ -run XXX -bench 'BenchmarkMatMulMod512' -benchmem

# Batched secure inference throughput at different Workers settings.
bench-batch:
	$(GO) test . -run XXX -bench 'BenchmarkSecureInferBatch' -benchtime 2x

# Persistent-session steady state over localhost TCP (docs/sessions.md):
# fails if any setup bytes are paid after open or the per-inference wire
# cost is not byte-identical, then re-verifies the span attribution and
# session structure on the emitted trace.
bench-session:
	$(GO) run ./cmd/sessionbench -model micro -n 8 -trace session-trace.json
	$(GO) run ./cmd/tracecheck session-trace.json

# Warm-vs-cold comparison of the asynchronous preprocessing plane
# (docs/preprocessing.md): fails unless the warm online p50 is strictly
# below the cold one, then re-verifies on the warm trace that no triple
# generation ran under a steady-state infer root. Refreshes BENCH_9.json,
# then holds it against the committed BENCH_8.json baseline.
bench-preproc:
	$(GO) run ./cmd/sessionbench -model micro -n 8 -bench-out BENCH_9.json -trace preproc-trace.json
	$(GO) run ./cmd/tracecheck preproc-trace.json
	$(GO) run ./cmd/benchgate BENCH_8.json BENCH_9.json

# Allocation gate for the online hot path (docs/performance.md): the
# serial 512-cubed modular GEMM through the Into kernels must report
# 0 allocs/op, or the steady-state inference loop has started allocating.
bench-online:
	$(GO) test ./internal/tensor/ -run '^$$' -bench '^BenchmarkMatMulMod512$$' -benchmem | tee /dev/stderr | \
		grep -Eq 'BenchmarkMatMulMod512\S*\s.*\s0 allocs/op' || \
		{ echo "bench-online: BenchmarkMatMulMod512 is allocating (want 0 allocs/op)"; exit 1; }

# Gateway fleet under load (docs/robustness.md): loadgen self-hosts
# three providers behind the gateway, streams concurrent mixed-model
# sessions with a mid-run backend kill, refreshes BENCH_10.json, and
# holds it against the committed BENCH_9.json baseline (structural gate:
# zero failed sessions, reroutes present, sane percentiles).
bench-gateway:
	$(GO) run ./cmd/loadgen -sessions 120 -inferences 3 -concurrency 12 -chaos -out BENCH_10.json
	$(GO) run ./cmd/benchgate BENCH_9.json BENCH_10.json

# Bench-regression gate over the committed baseline pairs: fails when a
# report regresses more than 10% against its predecessor (or, across the
# session->fleet schema boundary, fails the structural health gate).
benchgate:
	$(GO) run ./cmd/benchgate BENCH_8.json BENCH_9.json
	$(GO) run ./cmd/benchgate BENCH_9.json BENCH_10.json

bench: bench-matmul bench-batch bench-session bench-preproc bench-online bench-gateway

# Deterministic chaos harness (docs/robustness.md): the sampled fault
# sweep, the serve-loop and retry tests and the fault injector's own tests
# under the race detector, then the exhaustive micro sweep and the sampled
# networked-LeNet5 sweep without it. The CI chaos job runs this target. A
# -run alternative that selects no test (a rename the regex missed) fails
# the target instead of silently shrinking it.
CHAOS_RUN = TestFaultSweep|TestServe|TestRetry|TestChaosConn
CHAOS_PKGS = ./internal/engine/ ./internal/transport/

chaos:
	@for re in $(subst |, ,$(CHAOS_RUN)); do \
		$(GO) test -list "$$re" $(CHAOS_PKGS) | grep -q "^$$re" || \
			{ echo "chaos: -run alternative $$re selects no test"; exit 1; }; \
	done
	$(GO) test -race -timeout 20m -count=1 -run '$(CHAOS_RUN)' $(CHAOS_PKGS)
	AQ2PNN_CHAOS=1 AQ2PNN_CHAOS_LENET=1 $(GO) test -timeout 30m -count=1 -run 'TestFaultSweep' ./internal/engine/

# Fleet-level chaos (docs/robustness.md): the gateway's three-backend
# sweep — kill/stall/corrupt one backend at every sampled mid-inference
# operation index; every session must fail over and finish with
# bit-identical logits. The sampled sweep runs under the race detector;
# AQ2PNN_CHAOS_FLEET=1 then widens it to a stride across the whole
# inference window.
chaos-fleet:
	$(GO) test -race -timeout 20m -count=1 ./internal/gateway/
	AQ2PNN_CHAOS_FLEET=1 $(GO) test -timeout 30m -count=1 -run 'TestFleetChaos' ./internal/gateway/

# Protocol fuzzing suite (docs/robustness.md, "Hostile peers"): every
# wire decoder that consumes peer-controlled bytes, from its committed
# seed corpus in testdata/fuzz/.
fuzz:
	$(GO) test ./internal/transport/ -run '^$$' -fuzz '^FuzzRecvFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/engine/ -run '^$$' -fuzz '^FuzzRecvSetup$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/engine/ -run '^$$' -fuzz '^FuzzHandshakeHello$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/engine/ -run '^$$' -fuzz '^FuzzShareCodec$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ot/ -run '^$$' -fuzz '^FuzzOTFlowHeader$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/scm/ -run '^$$' -fuzz '^FuzzSCMMessage$$' -fuzztime $(FUZZTIME)

ci: vet lint build race bench-module benchgate
