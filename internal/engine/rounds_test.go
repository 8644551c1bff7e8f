package engine

import (
	"context"
	"sync"
	"testing"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/ot"
	"aq2pnn/internal/transport"
)

// TestMicroOnlineRoundsPinned pins the online round count of a cold micro
// inference under the coalesced comparison protocol. Rounds are counted by
// transport.Stats as send→recv direction changes, so this is the number of
// network latencies a WAN deployment pays per inference.
//
// The audit behind the pinned figures (16-bit carrier):
//
//   - Each linear layer (conv, FC) costs one E-matrix exchange round plus a
//     faithful truncation: one coalesced SCM round (ALL per-group token
//     transfers across the whole tensor ride a single ds-recv/cts-send
//     pair) and one B2A round.
//   - ABReLU costs one coalesced MSB round plus two Mux rounds.
//   - MaxPool runs its comparison tree with one ABReLU per stage; the 2×2
//     window is 2 stages plus the shared truncation of the preceding conv's
//     rescale — 4 rounds total here.
//   - The final logit reveal is 1 round.
//
// A cold run additionally pays OT-extension refill rounds the first time a
// pool of correlations runs dry (the conv1 figure includes 2 such refills);
// the preprocessing bank moves those off the online clock, which is why the
// warm BENCH figure is lower than this cold pin. If coalescing ever
// regresses to per-group exchanges, these counts jump by the group count
// (9 groups at 16 bits) and this test fails.
func TestMicroOnlineRoundsPinned(t *testing.T) {
	m, err := nn.ByName("micro", nn.ZooConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	cfg := Options{CarrierBits: 16, Seed: 9, Group: ot.TestGroup()}
	x := make([]int64, m.InputShape().Numel())
	for i := range x {
		x[i] = int64((i*13)%23) - 11
	}
	var res *Result
	var errU, errP error
	var wg sync.WaitGroup
	wg.Add(2)
	reg := registryOf(t, m)
	go func() { defer wg.Done(); res, errU = inferOnce(context.Background(), over(a), m, x, cfg) }()
	go func() { defer wg.Done(); errP = provideConn(b, reg, cfg) }()
	wg.Wait()
	if errU != nil {
		t.Fatal(errU)
	}
	if errP != nil {
		t.Fatal(errP)
	}

	wantPerOp := map[string]uint64{
		"conv1":   5, // exchange + cmp + B2A, plus 2 cold OT-extension refills
		"relu1":   3, // MSB + 2×Mux
		"pool1":   4, // 2 tree stages of (MSB + Mux) sharing coalesced flushes
		"flatten": 0, // local relabelling, no traffic
		"fc":      3, // exchange + cmp + B2A
	}
	for _, op := range res.PerOp {
		want, ok := wantPerOp[op.Name]
		if !ok {
			t.Fatalf("unexpected op %q in per-op stats", op.Name)
		}
		if op.Rounds != want {
			t.Errorf("op %s: %d rounds, want %d (coalescing regression?)", op.Name, op.Rounds, want)
		}
	}
	// Per-op rounds plus the single logit-reveal round.
	const wantTotal = 16
	if res.Online.Rounds != wantTotal {
		t.Errorf("online total %d rounds, want %d", res.Online.Rounds, wantTotal)
	}
}
