package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/ot"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/testutil"
	"aq2pnn/internal/transport"
)

// Deterministic chaos harness: sessions of one inference with a fault
// injected at every (or a sampled set of) transport op index, asserting the
// failure contract — both parties return a classified error within the
// deadline, nothing deadlocks, no goroutine leaks, and any reveal that
// does complete is uncorrupted.
//
// The exhaustive sweep over every op index runs when AQ2PNN_CHAOS=1 (the
// CI chaos job); the default run samples Micro's indices to stay fast and
// skips LeNet5, whose exhaustive sweep takes ~45 s on two cores.

func chaosExhaustive() bool { return os.Getenv("AQ2PNN_CHAOS") == "1" }

// sweepIndices picks the fault injection points: every index when
// exhaustive, else all early indices (where setup/handshake faults live)
// plus a stride through the long online tail.
func sweepIndices(total int) []int {
	if chaosExhaustive() {
		idx := make([]int, total)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	var idx []int
	for k := 0; k < total; k++ {
		if k < 12 || k%7 == 0 || k >= total-2 {
			idx = append(idx, k)
		}
	}
	return idx
}

// cleanRun measures a fault-free session of one inference against reg:
// per-party transport op counts through the reveal (the user's trailing
// end frame is best-effort and excluded, so every swept user index faults
// inside the open or the inference) and the reference logits faulted runs
// are compared against.
func cleanRun(t *testing.T, reg *Registry, m *nn.Model, x []int64, cfg Options) (userOps, providerOps int, logits []int64) {
	t.Helper()
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	var res *Result
	var errU, errP error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); res, errU = inferOnce(context.Background(), over(a), m, x, cfg) }()
	go func() { defer wg.Done(); errP = provideConn(b, reg, cfg) }()
	wg.Wait()
	if errU != nil || errP != nil {
		t.Fatalf("clean run failed: user %v, provider %v", errU, errP)
	}
	userOps = int(res.Setup.MsgsSent + res.Setup.MsgsRecv + res.Online.MsgsSent + res.Online.MsgsRecv)
	ps := b.Stats()
	providerOps = int(ps.MsgsSent + ps.MsgsRecv)
	return userOps, providerOps, res.Logits
}

// faultedRun executes one session with a drop fault after failAfter ops
// on the chosen party and asserts the failure contract.
func faultedRun(t *testing.T, m *nn.Model, x []int64, cfg Options, faultUser bool, failAfter int, want []int64) {
	t.Helper()
	a, b := transport.Pipe()
	plan := transport.FaultPlan{FailAfter: failAfter, Seed: uint64(failAfter)}
	uc, pc := transport.Conn(a), transport.Conn(b)
	if faultUser {
		uc = transport.NewFaults(plan, nil).Wrap(a)
	} else {
		pc = transport.NewFaults(plan, nil).Wrap(b)
	}
	var res *Result
	var errU, errP error
	var wg sync.WaitGroup
	wg.Add(2)
	// Closing the underlying pipe end when a party exits is the conn
	// hygiene Session and ServeRegistryTCP provide in production; it is
	// what unblocks the healthy peer. Every run serves from a fresh
	// registry, so it mints the clean run's token and replays its
	// transcript up to the fault.
	reg := registryOf(t, m)
	go func() {
		defer wg.Done()
		defer a.Close()
		res, errU = inferOnce(context.Background(), over(uc), m, x, cfg)
	}()
	go func() { defer wg.Done(); defer b.Close(); errP = provideConn(pc, reg, cfg) }()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("deadlock: fault at op %d (user=%v) unresolved after 2m\n%s", failAfter, faultUser, buf[:n])
	}
	faulted, healthy := errU, errP
	side := "user"
	if !faultUser {
		faulted, healthy = errP, errU
		side = "provider"
	}
	if !errors.Is(faulted, transport.ErrInjected) {
		t.Errorf("fault at %s op %d: faulted party returned %v, want ErrInjected in the chain", side, failAfter, faulted)
	}
	if !transport.IsTransient(faulted) {
		t.Errorf("fault at %s op %d: error %v not classified transient", side, failAfter, faulted)
	}
	// The healthy peer either finished before the fault mattered or must
	// fail with a classified transport error — never hang, never panic.
	if healthy != nil && !transport.IsTransient(healthy) {
		t.Errorf("fault at %s op %d: healthy peer error %v not classified transient", side, failAfter, healthy)
	}
	// A reveal that completed despite the peer's fault must be correct.
	if errU == nil && res != nil {
		if len(res.Logits) != len(want) {
			t.Fatalf("fault at %s op %d: reveal returned %d logits, want %d", side, failAfter, len(res.Logits), len(want))
		}
		for i := range want {
			if res.Logits[i] != want[i] {
				t.Errorf("fault at %s op %d: corrupted reveal %v, want %v", side, failAfter, res.Logits, want)
				break
			}
		}
	}
}

func sweepModel(t *testing.T, m *nn.Model, cfg Options) {
	t.Helper()
	x := make([]int64, m.InputShape().Numel())
	for i := range x {
		x[i] = int64(i%13) - 6
	}
	base := runtime.NumGoroutine()
	userOps, providerOps, want := cleanRun(t, registryOf(t, m), m, x, cfg)
	t.Logf("clean run: %d user ops, %d provider ops", userOps, providerOps)
	for _, k := range sweepIndices(userOps) {
		faultedRun(t, m, x, cfg, true, k, want)
	}
	for _, k := range sweepIndices(providerOps) {
		faultedRun(t, m, x, cfg, false, k, want)
	}
	testutil.CheckGoroutines(t, base)
}

func TestFaultSweepMicro(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep")
	}
	m, err := nn.ByName("micro", nn.ZooConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sweepModel(t, m, Options{Seed: 4, Group: ot.TestGroup()})
}

func TestFaultSweepLeNet5(t *testing.T) {
	if !chaosExhaustive() {
		t.Skip("LeNet5 sweep runs in the chaos CI job (AQ2PNN_CHAOS=1)")
	}
	m, err := nn.ByName("lenet5", nn.ZooConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sweepModel(t, m, Options{Seed: 4, Group: ot.TestGroup()})
}

// TestFaultSweepLatency runs a few drop faults under seeded latency
// injection, checking the delay path keeps the same failure contract.
func TestFaultSweepLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep")
	}
	m, err := nn.ByName("micro", nn.ZooConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Options{Seed: 4, Group: ot.TestGroup()}
	x := make([]int64, m.InputShape().Numel())
	for _, k := range []int{2, 19} {
		a, b := transport.Pipe()
		uc := transport.NewFaults(transport.FaultPlan{
			FailAfter: k, MaxLatency: 2 * time.Millisecond, Seed: 77,
		}, nil).Wrap(a)
		var errU, errP error
		var wg sync.WaitGroup
		wg.Add(2)
		reg := registryOf(t, m)
		go func() {
			defer wg.Done()
			defer a.Close()
			_, errU = inferOnce(context.Background(), over(uc), m, x, cfg)
		}()
		go func() { defer wg.Done(); defer b.Close(); errP = provideConn(b, reg, cfg) }()
		wg.Wait()
		if !errors.Is(errU, transport.ErrInjected) {
			t.Errorf("latency+drop at %d: user error %v", k, errU)
		}
		if errP != nil && !transport.IsTransient(errP) {
			t.Errorf("latency+drop at %d: provider error %v not transient", k, errP)
		}
	}
}

// TestFaultSweepTraceAttribution holds the span contract on error paths:
// traced sessions of one are cut at every op index of either party, and
// every failed attempt must still end each span it started. Each
// *.session.infer root that a party opened stays partitioned exactly by
// its children's deltas, and no finished span hangs under a parent that
// never ended. A protocol span left open on an error return breaks one
// or the other. Micro's session is a few dozen ops per party, so no
// index is sampled out.
func TestFaultSweepTraceAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep")
	}
	m, err := nn.ByName("micro", nn.ZooConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Options{Seed: 4, Group: ot.TestGroup(), Trace: telemetry.New()}
	x := make([]int64, m.InputShape().Numel())
	for i := range x {
		x[i] = int64(i%13) - 6
	}
	base := runtime.NumGoroutine()
	userOps, providerOps, want := cleanRun(t, registryOf(t, m), m, x, cfg)
	assertSpansEnded(t, cfg.Trace)
	assertExactAttribution(t, cfg.Trace, "user.session.infer", nil)
	for _, faultUser := range []bool{true, false} {
		side, ops := "provider", providerOps
		if faultUser {
			side, ops = "user", userOps
		}
		for k := 0; k < ops; k++ {
			t.Run(fmt.Sprintf("%s/op%d", side, k), func(t *testing.T) {
				cfg := cfg
				cfg.Trace = telemetry.New()
				faultedRun(t, m, x, cfg, faultUser, k, want)
				assertSpansEnded(t, cfg.Trace)
				for _, root := range []string{"user.session.infer", "provider.session.infer"} {
					if countSpans(cfg.Trace, root) > 0 {
						assertExactAttribution(t, cfg.Trace, root, nil)
					}
				}
			})
		}
	}
	testutil.CheckGoroutines(t, base)
}

// assertSpansEnded checks that every span the tracer started was ended.
// Span IDs are issued consecutively from 1 and only ended spans are
// recorded, so the trace must hold IDs 1..len(spans), and every recorded
// parent must itself be recorded.
func assertSpansEnded(t *testing.T, tr *telemetry.Tracer) {
	t.Helper()
	spans := tr.Spans()
	ended := make(map[uint64]bool, len(spans))
	var maxID uint64
	for _, r := range spans {
		ended[r.ID] = true
		maxID = max(maxID, r.ID)
	}
	if maxID != uint64(len(spans)) {
		t.Errorf("%d spans started, %d ended", maxID, len(spans))
	}
	for _, r := range spans {
		if r.Parent != 0 && !ended[r.Parent] {
			t.Errorf("span %q ended under parent %d, which never ended", r.Name, r.Parent)
		}
	}
}
