GO ?= go

# The vettool binary is cached here; `go build` is a no-op when the lint
# sources are unchanged, so repeat `make lint` runs pay only for go vet.
LINTBIN ?= bin/aq2pnnlint

.PHONY: build test race vet lint lintbin bench-module bench-gate trace chaos chaos-fleet fuzz ci

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

# The benchmark's exact gate (bench/README.md): the whole suite at
# 1-second windows, judged by -compare against the committed baseline.
# Every `failed` row and every bound-0 row (bytes, rounds) must read ok;
# the exact counts do not depend on window length. Toleranced timing rows
# are printed but advisory: a shared CI box is too noisy to judge them.
bench-gate:
	bash bench/run.sh -seed 1 -seconds 1 -label gate
	bash bench/run.sh -compare bench/baseline.json bench/results/gate.json | awk '{ print } \
		/ bound 0[ %]/ { n++; if ($$3 != "ok") bad++ } \
		END { if (n == 0 || bad) { printf "bench-gate: %d exact rows, %d not ok\n", n, bad; exit 1 } }'

# Trace artifacts, each re-verified by cmd/tracecheck (attribution, session
# structure, warm preprocessing): the local LeNet5 quickstart, and quick
# traced runs of the benchmark's banked-session and gateway workloads.
trace:
	$(GO) run ./examples/quickstart -trace lenet5-trace.json
	bash bench/run.sh --workload micro_warm --seed 1 --seconds 1 --trace 1 --quick
	bash bench/run.sh --workload fleet_micro --seed 1 --seconds 1 --trace 1 --quick
	$(GO) run ./cmd/tracecheck lenet5-trace.json
	$(GO) run ./cmd/tracecheck bench/results/micro_warm.trace.json
	$(GO) run ./cmd/tracecheck bench/results/fleet_micro.trace.json

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

ci: vet lint build race bench-module bench-gate trace
