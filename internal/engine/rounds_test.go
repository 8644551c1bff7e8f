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
//     pair) and one B2A round. A cold conv adds one round for its triple:
//     the fixed-choice correction frames, one each way, built from the
//     session's seeds with no OT.
//   - ABReLU costs one coalesced MSB round plus two Mux rounds.
//   - MaxPool runs its comparison tree with one ABReLU per stage; the 2×2
//     window is 2 stages plus the shared truncation of the preceding conv's
//     rescale — 4 rounds total here.
//   - The final logit reveal is 1 round.
//
// conv1 reads one round below that tally: the truncation's SCM tokens (and
// the cold endpoint's first refill, one u-matrix frame) reach the user
// right behind the exchange, in the same direction run, so its comparison
// adds no send→recv change of its own. A cold run's OT endpoint is derived
// from the session's main plane (ot.Plane), so it runs no public-key
// flow (which would add a round to conv1, the endpoint's first use) and no
// reverse-direction bootstrap (a round in relu1, its first use of the
// other direction) online. The preprocessing bank moves the triple and the
// first refill off the online clock, which is why the warm benchmark
// figure is lower than this cold pin. If coalescing ever
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
		"conv1":   3, // corrections + exchange + B2A, the cmp's tokens behind the exchange
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
	const wantTotal = 14
	if res.Online.Rounds != wantTotal {
		t.Errorf("online total %d rounds, want %d", res.Online.Rounds, wantTotal)
	}
}
