package engine

import (
	"context"
	"sync"
	"testing"
	"time"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
)

// restartableServer hosts serve loops that can be torn down and
// replaced wholesale — listener, registry and all — while a client keeps
// a session handle across the gap. Each Start is a cold process as far
// as the protocol can tell: a fresh Registry holds the model's weights
// but none of the parked session state.
type restartableServer struct {
	t   *testing.T
	m   *nn.Model
	cfg Options

	mu     sync.Mutex
	addr   string
	cancel context.CancelFunc
	done   chan error
}

func (rs *restartableServer) Start() {
	rs.t.Helper()
	l, err := transport.NewListener("127.0.0.1:0")
	if err != nil {
		rs.t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	reg := registryOf(rs.t, rs.m)
	done := make(chan error, 1)
	go func() { done <- ServeRegistryTCP(ctx, l, reg, rs.cfg, 0, nil) }()
	rs.mu.Lock()
	rs.addr, rs.cancel, rs.done = l.Addr(), cancel, done
	rs.mu.Unlock()
	rs.t.Cleanup(func() { l.Close() })
}

func (rs *restartableServer) Stop() {
	rs.t.Helper()
	rs.mu.Lock()
	cancel, done := rs.cancel, rs.done
	rs.mu.Unlock()
	cancel()
	if err := <-done; err != nil {
		rs.t.Errorf("serve returned %v on shutdown, want nil", err)
	}
}

func (rs *restartableServer) dial(ctx context.Context) (transport.Conn, error) {
	rs.mu.Lock()
	addr := rs.addr
	rs.mu.Unlock()
	return transport.DialContext(ctx, addr, 5*time.Second)
}

// TestSessionSurvivesProviderRestart kills the provider process outright
// — cold Registry, new listener, nothing parked — between inferences of
// a live session, and requires the client handle to heal through the
// attach-miss → fresh-setup fallback with logits bit-identical to an
// uninterrupted run. The token-adoption fallback is what makes the
// strong assertion possible: a fresh Registry mints the same first
// token, and the re-attach preserves it, so both runs derive identical
// transcripts end to end.
func TestSessionSurvivesProviderRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked sessions")
	}
	m := tinyModel(nn.PoolAvg)
	x := input(64)
	cfg := testCfg()
	cfg.Retries = 4
	cfg.RetryBase = 5 * time.Millisecond
	ctx := context.Background()
	const inferences = 3

	// Reference: one uninterrupted session against a fresh server.
	ref := &restartableServer{t: t, m: m, cfg: cfg}
	ref.Start()
	sRef, err := NewClient(ref.dial, cfg).OpenSession(ctx, m)
	if err != nil {
		t.Fatalf("reference open: %v", err)
	}
	refToken := sRef.Token()
	var want [inferences][]int64
	for i := 0; i < inferences; i++ {
		res, err := sRef.Infer(ctx, x)
		if err != nil {
			t.Fatalf("reference inference %d: %v", i, err)
		}
		want[i] = res.Logits
	}
	sRef.Close()
	ref.Stop()

	// Restart run: same model, fresh server; the provider dies wholesale
	// after inference 0 and a cold replacement takes over.
	tr := telemetry.New()
	ccfg := cfg
	ccfg.Trace = tr
	rs := &restartableServer{t: t, m: m, cfg: cfg}
	rs.Start()
	s, err := NewClient(rs.dial, ccfg).OpenSession(ctx, m)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if s.Token() != refToken {
		t.Fatalf("fresh registries minted different first tokens %x vs %x — reference run invalid",
			refToken, s.Token())
	}
	res, err := s.Infer(ctx, x)
	if err != nil {
		t.Fatalf("inference 0: %v", err)
	}
	assertSameLogits(t, "inference 0", res.Logits, want[0])

	rs.Stop()
	rs.Start() // cold process: fresh Registry, new port, nothing parked

	for i := 1; i < inferences; i++ {
		res, err := s.Infer(ctx, x)
		if err != nil {
			t.Fatalf("inference %d after restart: %v", i, err)
		}
		assertSameLogits(t, "post-restart inference", res.Logits, want[i])
	}
	if s.Token() != refToken {
		t.Errorf("restart fallback re-minted the token: %x -> %x", refToken, s.Token())
	}
	// The heal is a fresh setup (the cold registry cannot re-attach):
	// exactly two shares exchanges on this client's trace.
	if n := countSpans(tr, "exchange.shares"); n != 2 {
		t.Errorf("exchange.shares spans = %d, want 2 (open + post-restart fallback)", n)
	}
	s.Close()
	rs.Stop()
}

func assertSameLogits(t *testing.T, what string, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d logits, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: logits %v not bit-identical to fault-free run %v", what, got, want)
		}
	}
}
