package gateway

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"aq2pnn/internal/engine"
	"aq2pnn/internal/nn"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/testutil"
	"aq2pnn/internal/transport"
)

// Fleet-level chaos: a three-backend fleet where one backend is killed,
// stalled, or made to corrupt a frame at a chosen operation index while
// a client streams inferences through the gateway. The contract under
// test is the strongest the protocol offers: every session completes
// with logits BIT-IDENTICAL to an undisturbed run, because the
// gateway-minted token survives the failover (ring routing keeps the
// key, the provider's adoption fallback rebuilds the transcript from
// the same token on the healthy backend).
//
// The sweep space is measured, not guessed: a clean reference run
// counts the victim backend's transport operations, and fault indices
// are sampled strictly between "session open done" and "last inference
// op" so every fault lands mid-stream. AQ2PNN_CHAOS=1 widens the sample
// to a stride sweep across the whole window (the nightly make chaos-fleet
// target).
func TestFleetChaosFailoverBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked fleet chaos sweep")
	}
	base := runtime.NumGoroutine()
	m := testModel(t)
	x := testInput(m)
	scfg := fleetCfg()
	ccfg := fleetCfg()
	ccfg.Retries = 8
	ccfg.RetryBase = 5 * time.Millisecond
	ctx := context.Background()
	const inferences = 2
	never := transport.FaultPlan{FailAfter: -1}

	// Reference: a clean fleet. Record the token, per-inference logits,
	// and the victim's operation counts at open and at completion.
	ref := startFleet(t, m, scfg, []transport.FaultPlan{never, never, never}, nil)
	s, err := engine.NewClient(ref.dial, ccfg).OpenSession(ctx, m)
	if err != nil {
		t.Fatalf("reference open: %v", err)
	}
	refToken := s.Token()
	victim := -1
	for i, b := range ref.backends {
		if b.faults.Ops() > 0 {
			if victim >= 0 {
				t.Fatalf("session open touched backends %d and %d — routing is not sticky", victim, i)
			}
			victim = i
		}
	}
	if victim < 0 {
		t.Fatal("no backend saw the session open")
	}
	// The victim's own count when OpenSession or Infer returns races its
	// parked next-request receive (operations are counted when they
	// start), so count the victim's ops from the client's side instead:
	// one per frame the splice moved, plus that receive.
	setup := s.SetupStats()
	opsOpen := setup.MsgsSent + setup.MsgsRecv + 1
	opsTotal := opsOpen
	var want [inferences][]int64
	for i := 0; i < inferences; i++ {
		res, err := s.Infer(ctx, x)
		if err != nil {
			t.Fatalf("reference inference %d: %v", i, err)
		}
		want[i] = res.Logits
		opsTotal += res.Online.MsgsSent + res.Online.MsgsRecv
	}
	if err := s.Close(); err != nil {
		t.Fatalf("reference close: %v", err)
	}
	ref.stop()
	if st := ref.gw.Stats(); st.Reroutes != 0 || st.BackendFailures != 0 {
		t.Fatalf("clean reference run recorded failures: %+v", st)
	}
	if opsTotal < opsOpen+8 {
		t.Fatalf("inference window too narrow to fault: open %d, total %d", opsOpen, opsTotal)
	}
	t.Logf("victim b%d: open at op %d, stream ends at op %d", victim, opsOpen, opsTotal)

	// Fault indices inside the open window. The ceiling backs off the
	// stream tail: opsTotal includes the final answer's send and the
	// provider's parked next-request receive — a fault landing there lets
	// the session finish cleanly and nothing fails over. Three ops of
	// slack keeps every sampled fault strictly mid-stream.
	lo, hi := opsOpen+1, opsTotal-3
	mid := (lo + hi) / 2
	killAt := []uint64{lo, mid, hi}
	stallAt := []uint64{mid}
	corruptAt := []uint64{lo + 1, hi - 1}
	if os.Getenv("AQ2PNN_CHAOS") == "1" {
		killAt, corruptAt = nil, nil
		stride := (hi - lo) / 16
		if stride == 0 {
			stride = 1
		}
		for op := lo; op <= hi; op += stride {
			killAt = append(killAt, op)
			corruptAt = append(corruptAt, op)
		}
		stallAt = []uint64{lo, mid, hi}
	}

	type mode struct {
		name string
		plan func(op uint64) transport.FaultPlan
		at   []uint64
	}
	modes := []mode{
		{"kill", func(op uint64) transport.FaultPlan {
			return transport.FaultPlan{FailAfter: int(op)}
		}, killAt},
		{"stall", func(op uint64) transport.FaultPlan {
			return transport.FaultPlan{FailAfter: int(op), Stall: 1200 * time.Millisecond, StallAt: int(op)}
		}, stallAt},
		{"corrupt", func(op uint64) transport.FaultPlan {
			return transport.FaultPlan{FailAfter: int(op), Corrupt: true}
		}, corruptAt},
	}
	for _, md := range modes {
		for _, op := range md.at {
			t.Run(fmt.Sprintf("%s@%d", md.name, op), func(t *testing.T) {
				plans := []transport.FaultPlan{never, never, never}
				plans[victim] = md.plan(op)
				fl := startFleet(t, m, scfg, plans, nil)
				s, err := engine.NewClient(fl.dial, ccfg).OpenSession(ctx, m)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				if s.Token() != refToken {
					t.Fatalf("token %x differs from reference %x — minting is not deterministic", s.Token(), refToken)
				}
				for i := 0; i < inferences; i++ {
					res, err := s.Infer(ctx, x)
					if err != nil {
						t.Fatalf("inference %d did not survive the fault: %v", i, err)
					}
					if !sameLogits(res.Logits, want[i]) {
						t.Fatalf("inference %d logits diverged after failover:\n got %v\nwant %v", i, res.Logits, want[i])
					}
				}
				if s.Token() != refToken {
					t.Errorf("token changed across failover: %x", s.Token())
				}
				s.Close() // may race the dead primary's teardown; outcome not asserted
				// Fired means the budget ran out: either the trip was observed
				// (Dead), or every permitted op was consumed — a corrupt run can
				// end there when the damaged frame itself makes the provider
				// fail the session and the breaker isolates the victim before
				// any op crosses the exhausted budget.
				if vf := fl.backends[victim].faults; !vf.Dead() && vf.Ops() < op {
					t.Errorf("fault at op %d never fired (victim performed %d ops)", op, vf.Ops())
				}
				fl.stop()
				st := fl.gw.Stats()
				if st.Reroutes == 0 {
					t.Errorf("victim died but no session was rerouted: %+v", st)
				}
				if h := fl.gw.Health(); h[fmt.Sprintf("b%d", victim)] == "closed" {
					t.Errorf("victim's breaker still closed after its death: %v", h)
				}
			})
		}
	}
	testutil.CheckGoroutines(t, base)
}

// TestFleetKillUnderLoad: a backend killed while it holds sessions of a
// concurrent load. Once every session has finished its first inference,
// one backend that holds a session dies; every session must finish its
// remaining inferences through the failover path, the victim must leave
// rotation, and nothing may leak.
func TestFleetKillUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked fleet under load")
	}
	base := runtime.NumGoroutine()
	m := testModel(t)
	x := testInput(m)
	scfg := fleetCfg()
	ccfg := fleetCfg()
	ccfg.Retries = 8
	ccfg.RetryBase = 5 * time.Millisecond
	want, err := m.Forward(x, nn.ForwardOptions{Mode: nn.Ring, Carrier: ring.New(scfg.CarrierBits)})
	if err != nil {
		t.Fatal(err)
	}
	never := transport.FaultPlan{FailAfter: -1}
	f := startFleet(t, m, scfg, []transport.FaultPlan{never, never, never}, nil)

	const sessions, inferences = 4, 3
	var first, all sync.WaitGroup
	first.Add(sessions)
	all.Add(sessions)
	killed := make(chan struct{})
	errs := make([]error, sessions)
	run := func() error {
		firstDone := sync.OnceFunc(first.Done)
		defer firstDone()
		ctx := context.Background()
		s, err := engine.NewClient(f.dial, ccfg).OpenSession(ctx, m)
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		defer s.Close() // may race the dead backend's teardown; outcome not asserted
		for i := 0; i < inferences; i++ {
			if i == 1 {
				firstDone()
				<-killed
			}
			res, err := s.Infer(ctx, x)
			if err != nil {
				return fmt.Errorf("inference %d: %w", i, err)
			}
			if d := maxAbsDiff(res.Logits, want); d > 32 {
				return fmt.Errorf("inference %d diverges from plaintext by %d", i, d)
			}
		}
		return nil
	}
	for i := range errs {
		go func() { defer all.Done(); errs[i] = run() }()
	}
	first.Wait()
	victim := -1
	for i, b := range f.backends {
		if b.faults.Ops() > 0 { // probes are off, so only sessions touch a backend
			victim = i
			b.faults.Kill()
			break
		}
	}
	close(killed)
	all.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", i, err)
		}
	}
	if victim < 0 {
		t.Fatal("no backend holds a session")
	}
	f.stop()
	st := f.gw.Stats()
	t.Logf("killed b%d: %+v", victim, st)
	if st.Reroutes == 0 {
		t.Errorf("a backend holding sessions died but none was rerouted: %+v", st)
	}
	if h := f.gw.Health(); h[fmt.Sprintf("b%d", victim)] == "closed" {
		t.Errorf("victim b%d's breaker still closed after its death: %v", victim, h)
	}
	testutil.CheckGoroutines(t, base)
}
