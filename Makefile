GO ?= go

# The vettool binary is cached here; `go build` is a no-op when the lint
# sources are unchanged, so repeat `make lint` runs pay only for go vet.
LINTBIN ?= bin/aq2pnnlint

.PHONY: build test race vet lint lintbin bench-module bench-gate trace chaos chaos-fleet fuzz pins ci

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

# gofmt drift fails vet: nothing else would catch it.
vet:
	@unformatted="$$(gofmt -l .)"; if test -n "$$unformatted"; then \
		echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi
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

# require-tests fails the calling target when an alternative of the -run
# regex $(1) selects no test in the packages $(2): a rename the regex
# missed would otherwise shrink the target silently.
define require-tests
@for re in $(subst |, ,$(1)); do \
	$(GO) test -list "$$re" $(2) | grep -q "^$$re" || \
		{ echo "$@: -run alternative $$re selects no test"; exit 1; }; \
done
endef

# Deterministic chaos harness (docs/robustness.md): the sampled fault
# sweep, the serve-loop and retry tests and every test of the fault
# injector (transport.Faults) under the race detector, then the exhaustive
# Micro and LeNet5 sweeps without it. The injector's tests are TestFaults*
# plus five drop and corruption tests kept under their earlier names
# (FAULT_TESTS). AQ2PNN_CHAOS=1 is the one chaos switch. The CI and the
# nightly chaos jobs run this target.
FAULT_TESTS = TestFaults|TestChaosConn|TestFaultyConn|TestProcessFaults
CHAOS_RUN = TestFaultSweep|TestServe|TestRetry|$(FAULT_TESTS)
CHAOS_PKGS = ./internal/engine/ ./internal/transport/

chaos:
	$(call require-tests,$(CHAOS_RUN),$(CHAOS_PKGS))
	$(GO) test -race -timeout 20m -count=1 -run '$(CHAOS_RUN)' $(CHAOS_PKGS)
	AQ2PNN_CHAOS=1 $(GO) test -timeout 30m -count=1 -run 'TestFaultSweep' ./internal/engine/

# Determinism pins (docs/performance.md): the OT and session wire
# transcripts, token steps of rising then falling size over stocks
# compacted in place, the OT dealer's streams (each view the same whatever
# the take sizes and the taking order, and each instance its documented
# keystream blocks), the in-process path's logits, the pad definition, serial-vs-pooled OT endpoints,
# an extend pair on recycled 0xFF slabs against one on fresh buffers, the
# Gilboa and fixed-choice triple shares, the seed expansion's known
# answer, Micro's cold and warm online round counts and the accelerator
# cost model's per-node bytes and rounds against the measured wire, at
# three worker counts, once with the AES-NI kernels behind the fixed-key
# permutation, the seed expansion and the IKNP column expansion and once
# under -tags purego, which runs the per-block fallback. The
# pinned constants must not depend on GOMAXPROCS or on the build, and
# tier-1 runs them at one count only.
PINS_RUN = TestOTTranscriptPinned|TestStockStepsPinned|TestDealerStreamIndependentOfTakes|TestDealerKnownAnswer|TestLocalBatchLogitsPinned|TestPoolMatchesSerial|TestPadKnownAnswer|TestExtendSlabHygiene|TestGilboaSharesPinned|TestFixedChoiceSharesPinned|TestExpandKnownAnswer|TestSessionTranscriptPinned|TestMicroOnlineRoundsPinned|TestPerOpCommMatchesEngineProfile|TestAnalyticCommMatchesMeasured
PINS_PKGS = ./internal/ot/ ./internal/triple/ ./internal/engine/ ./internal/fpga/

pins:
	$(call require-tests,$(PINS_RUN),$(PINS_PKGS))
	$(GO) test -count=1 -cpu 1,4,8 -run '$(PINS_RUN)' $(PINS_PKGS)
	$(GO) test -count=1 -cpu 1,4,8 -tags purego -run '$(PINS_RUN)' $(PINS_PKGS)

# Fleet-level chaos (docs/robustness.md): the gateway's three-backend
# sweep — kill/stall/corrupt one backend at every sampled mid-inference
# operation index; every session must fail over and finish with
# bit-identical logits. The sampled sweep runs under the race detector;
# AQ2PNN_CHAOS=1 then widens it to a stride across the whole inference
# window.
chaos-fleet:
	$(GO) test -race -timeout 20m -count=1 ./internal/gateway/
	AQ2PNN_CHAOS=1 $(GO) test -timeout 30m -count=1 -run 'TestFleetChaos' ./internal/gateway/

# Protocol fuzzing suite (docs/robustness.md, "Hostile peers"): every
# wire decoder that consumes peer-controlled bytes, from its committed
# seed corpus in testdata/fuzz/, then the fixed-key permutation's kernel
# differentially against crypto/aes, the seed expansion's kernel against
# its Go fallback, the IKNP row-block transpose against
# the bit-by-bit one, the keyed IKNP column expansion against
# prg.Keystream, and the 1 KiB-buffered PRG against the 8 KiB-buffered
# one it replaced. `go test -fuzz` with a pattern that matches
# no target prints "no fuzz tests to fuzz" and exits 0, so every target,
# named once below as package:Target, is first required to exist.
FUZZ_TARGETS = \
	./internal/transport/:FuzzRecvFrame \
	./internal/engine/:FuzzRecvSetup \
	./internal/engine/:FuzzHandshakeHello \
	./internal/engine/:FuzzShareCodec \
	./internal/ot/:FuzzOTFlowHeader \
	./internal/ot/:FuzzOTFlowElems \
	./internal/ot/:FuzzOTExtendFrames \
	./internal/scm/:FuzzSCMMessage \
	./internal/triple/:FuzzFixedChoiceFrame \
	./internal/ot/:FuzzPermBlocks \
	./internal/ot/:FuzzExpand \
	./internal/ot/:FuzzTransposeBlock \
	./internal/ot/:FuzzColumnExpand \
	./internal/prg/:FuzzPRGStream

fuzz:
	@for t in $(FUZZ_TARGETS); do \
		$(GO) test -list "^$${t#*:}$$" $${t%%:*} | grep -qx "$${t#*:}" || \
			{ echo "$@: fuzz target $$t not found"; exit 1; }; \
	done
	@for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test $${t%%:*} -run '^$$' -fuzz "^$${t#*:}$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

ci: vet lint build race pins bench-module bench-gate trace
