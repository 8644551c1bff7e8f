package engine

import (
	"context"
	"testing"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/ot"
)

// TestMicroOnlineRoundsPinned pins the online round count of a micro
// inference under the coalesced comparison protocol, cold and warm (a
// banked session whose plane was drained after one kit, so that the
// fill stream runs nothing beside the inference). Rounds are counted by
// transport.Stats as send→recv direction changes, so this is the number
// of network latencies a WAN deployment pays per inference.
//
// The audit behind the pinned figures (16-bit carrier):
//
//   - Each linear layer (conv, FC) costs one E-matrix exchange round plus a
//     faithful truncation: one coalesced SCM round (ALL per-group token
//     transfers across the whole tensor ride a single ds-recv/cts-send
//     pair) and one B2A round. Here the truncation's SCM tokens (and, in
//     conv1, the OT endpoint's first refill, one u-matrix frame) reach the
//     user right behind the exchange, in the same direction run, so the
//     comparison adds no send→recv change of its own.
//   - A cold linear layer adds one round for its triple: a conv's
//     fixed-choice correction frames, one each way, built from the
//     session's seeds with no OT; the FC layer's Gilboa OTs, both
//     directions in one round trip. A warm layer consumes its kit's triple
//     and adds none.
//   - ABReLU costs one coalesced MSB round plus two Mux rounds.
//   - MaxPool runs its comparison tree with one ABReLU per stage; the 2×2
//     window is 2 stages plus the shared truncation of the preceding conv's
//     rescale — 4 rounds total here.
//   - The final logit reveal is 1 round.
//
// Both runs' OT endpoints are derived from a plane (ot.Plane): the cold
// one from the session's main plane, the warm one from the fill plane that
// made its kit. Neither runs a public-key flow (which would add a round to
// conv1, the endpoint's first use) or a reverse-direction bootstrap (a
// round at the first use of its second direction) online. If coalescing
// ever regresses to per-group exchanges, these counts jump by the group
// count (9 groups at 16 bits) and this test fails.
func TestMicroOnlineRoundsPinned(t *testing.T) {
	m, err := nn.ByName("micro", nn.ZooConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]int64, m.InputShape().Numel())
	for i := range x {
		x[i] = int64((i*13)%23) - 11
	}
	for _, tc := range []struct {
		name      string
		bankDepth int
		perOp     map[string]uint64
		total     uint64 // per-op rounds plus the single logit-reveal round
	}{
		{"cold", 0, map[string]uint64{
			"conv1":   3, // corrections + exchange + B2A, the cmp's tokens behind the exchange
			"relu1":   3, // MSB + 2×Mux
			"pool1":   4, // 2 tree stages of (MSB + Mux) sharing coalesced flushes
			"flatten": 0, // local relabelling, no traffic
			"fc":      3, // Gilboa OTs + exchange + B2A, the cmp's tokens behind the exchange
		}, 14},
		{"warm", 1, map[string]uint64{
			"conv1":   2, // exchange + B2A, the cmp's tokens behind the exchange
			"relu1":   3, // MSB + 2×Mux
			"pool1":   4, // 2 tree stages of (MSB + Mux) sharing coalesced flushes
			"flatten": 0, // local relabelling, no traffic
			"fc":      2, // exchange + B2A, the cmp's tokens behind the exchange
		}, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Options{CarrierBits: 16, Seed: 9, Group: ot.TestGroup(), BankDepth: tc.bankDepth}
			h := newSessionHarness(t, m, cfg)
			s, err := NewClient(h.dial, cfg).OpenSession(context.Background(), m)
			if err != nil {
				t.Fatalf("OpenSession: %v", err)
			}
			if tc.bankDepth > 0 && (!s.WarmupPreproc(1) || !s.DrainPreproc()) {
				t.Fatal("the preprocessing plane did not fill one kit")
			}
			res, err := s.Infer(context.Background(), x)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			h.wg.Wait()
			for _, e := range h.providerErrs() {
				if e != nil {
					t.Errorf("provider: %v", e)
				}
			}
			for _, op := range res.PerOp {
				want, ok := tc.perOp[op.Name]
				if !ok {
					t.Fatalf("unexpected op %q in per-op stats", op.Name)
				}
				if op.Rounds != want {
					t.Errorf("op %s: %d rounds, want %d (coalescing regression?)", op.Name, op.Rounds, want)
				}
			}
			if res.Online.Rounds != tc.total {
				t.Errorf("online total %d rounds, want %d", res.Online.Rounds, tc.total)
			}
		})
	}
}
