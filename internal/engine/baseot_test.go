package engine

import (
	"bytes"
	"context"
	"testing"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/ot"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
)

// TestBaseSetupsPerEndpoint counts public-key base-OT set-ups
// (aq2pnn_ot_base_setups_total) per OT endpoint. Both parties run in this
// process, so every step that gives each party's endpoint k set-ups moves
// the counter by 2k. A raw endpoint pair used in both directions runs one
// set-up per endpoint, in either order; a session open runs none; a cold
// seq's online endpoint runs one; a kit fill runs one; a warm seq's online
// endpoint, started from its kit's base OTs, runs none.
func TestBaseSetupsPerEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked sessions")
	}
	telemetry.Enable()
	setups := func() uint64 { return counterValue("aq2pnn_ot_base_setups_total") }
	perEndpoint := func(what string, before uint64, want uint64) {
		t.Helper()
		if got := setups() - before; got != 2*want {
			t.Errorf("%s: %d set-ups over both parties, want %d per endpoint", what, got, want)
		}
	}

	for first := range 2 {
		a, b := transport.Pipe()
		eps := [2]*ot.Endpoint{ot.NewEndpoint(0, a, prg.NewSeeded(31)), ot.NewEndpoint(1, b, prg.NewSeeded(32))}
		for _, e := range eps {
			e.HarvestGroup = ot.TestGroup()
		}
		before := setups()
		for _, snd := range []int{first, 1 - first} {
			msgs := []byte{1, 2, 3, 4}
			errs := make(chan error, 1)
			go func() { errs <- eps[snd].Send1ofN(2, 1, msgs) }()
			got, err := eps[1-snd].Recv1ofN(2, []int{1, 0}, 1)
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
			if err != nil || !bytes.Equal(got, []byte{2, 3}) {
				t.Fatalf("raw pair, party %d sending: got %v, %v", snd, got, err)
			}
		}
		perEndpoint("raw pair", before, 1)
		a.Close()
		b.Close()
	}

	m := tinyModel(nn.PoolAvg)
	x := input(64)
	for _, bank := range []int{0, 1} {
		cfg := testCfg()
		cfg.BankDepth = bank
		h := newSessionHarness(t, m, cfg)
		before := setups()
		s, err := NewClient(h.dial, cfg).OpenSession(context.Background(), m)
		if err != nil {
			t.Fatalf("OpenSession: %v", err)
		}
		perEndpoint("session open", before, 0)
		if bank > 0 {
			before = setups()
			if !s.WarmupPreproc(1) || !s.DrainPreproc() {
				t.Fatal("the preprocessing plane did not fill one kit")
			}
			perEndpoint("kit fill", before, 1)
		}
		before = setups()
		if _, err := s.Infer(context.Background(), x); err != nil {
			t.Fatalf("inference: %v", err)
		}
		if bank > 0 {
			perEndpoint("warm seq", before, 0)
		} else {
			perEndpoint("cold seq", before, 1)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		h.wg.Wait()
	}
}
