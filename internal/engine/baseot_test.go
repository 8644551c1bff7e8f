package engine

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/ot"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
)

// TestBaseSetupsPerEndpoint counts public-key base-OT set-ups
// (aq2pnn_ot_base_setups_total). Both parties run in this process, so
// every step that runs k set-ups per party moves the counter by 2k. A raw
// endpoint pair used in both directions runs one set-up per endpoint, in
// either order. A session runs one per plane: the fill stream's before its
// first kit, the main stream's at a no-plane open or before the first cold
// seq; every kit and every cold seq derives its endpoint from its plane
// and runs none, and a warm seq's endpoint, started from its kit's base
// OTs, runs none either. A resumed re-attach keeps the main plane and runs
// none; a failover (a re-attach that misses) sets the plane up afresh.
func TestBaseSetupsPerEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked sessions")
	}
	telemetry.Enable()
	setups := func() uint64 { return counterValue("aq2pnn_ot_base_setups_total") }
	perParty := func(what string, before uint64, want uint64) {
		t.Helper()
		if got := setups() - before; got != 2*want {
			t.Errorf("%s: %d set-ups over both parties, want %d per party", what, got, want)
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
		perParty("raw pair", before, 1)
		a.Close()
		b.Close()
	}

	m := tinyModel(nn.PoolAvg)
	x := input(64)
	infer := func(s *Session, what string, want uint64) {
		t.Helper()
		before := setups()
		if _, err := s.Infer(context.Background(), x); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		perParty(what, before, want)
	}

	// A banked session: one set-up for the fill plane, whatever its kit
	// count, and one for the main plane before the first cold seq.
	const kits = 3
	cfg := testCfg()
	cfg.BankDepth = kits
	h := newSessionHarness(t, m, cfg)
	before := setups()
	s, err := NewClient(h.dial, cfg).OpenSession(context.Background(), m)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	perParty("open with the preprocessing plane", before, 0)
	before = setups()
	if !s.WarmupPreproc(kits) || !s.DrainPreproc() {
		t.Fatalf("the preprocessing plane did not fill %d kits", kits)
	}
	perParty("fill plane", before, 1)
	for i := range kits {
		infer(s, fmt.Sprintf("warm seq %d", i), 0)
	}
	infer(s, "first cold seq", 1)
	infer(s, "second cold seq", 0)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	h.wg.Wait()

	// A session without the plane: the open sets up the main plane; a
	// resumed re-attach keeps it, and a failover sets it up once more.
	cfg = testCfg()
	cfg.Retries = 1
	h = newSessionHarness(t, m, cfg)
	var live transport.Conn
	h.wrap = func(_ int, c transport.Conn) transport.Conn { live = c; return nil }
	waitFor := 0
	h.beforeDial = func(int) {
		if waitFor > 0 {
			h.waitProviderDone(waitFor)
		}
	}
	// cut closes the live connection between inferences; the provider
	// parks the session on the transient read error, and the next Infer
	// re-dials once it has.
	cut := func() {
		waitFor = len(h.providerErrs()) + 1
		live.Close()
	}
	reattached := func() uint64 { return counterValue("aq2pnn_sessions_reattached_total") }
	before = setups()
	if s, err = NewClient(h.dial, cfg).OpenSession(context.Background(), m); err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	perParty("no-plane open", before, 1)
	infer(s, "cold seq", 0)
	infer(s, "second cold seq", 0)
	cut()
	re := reattached()
	infer(s, "cold seq after a resumed re-attach", 0)
	if got := reattached() - re; got != 1 {
		t.Fatalf("%d re-attaches, want 1", got)
	}
	cut()
	h.mu.Lock()
	h.reg = registryOf(t, m) // the parked state is gone: the re-attach misses
	h.mu.Unlock()
	re = reattached()
	infer(s, "cold seq after a failover", 1)
	if got := reattached() - re; got != 0 {
		t.Fatalf("%d re-attaches after the registry swap, want 0", got)
	}
	infer(s, "cold seq after the failover", 0)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	h.wg.Wait()
}

// TestFixedSetupsCounted counts fixed-choice seed-OT set-ups
// (aq2pnn_triple_fixed_setups_total), both parties in this process: one
// per party per fill plane, whatever its kit count, counted with the open
// that starts it; one per no-plane open; one before the first cold seq of
// a session opened with the plane; none per kit, per warm seq or per
// later cold seq.
func TestFixedSetupsCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked sessions")
	}
	telemetry.Enable()
	setups := func() uint64 { return counterValue("aq2pnn_triple_fixed_setups_total") }
	perParty := func(what string, before uint64, want uint64) {
		t.Helper()
		if got := setups() - before; got != 2*want {
			t.Errorf("%s: %d fixed-choice set-ups over both parties, want %d per party", what, got, want)
		}
	}
	m := tinyModel(nn.PoolAvg)
	x := input(64)
	infer := func(s *Session, what string, want uint64) {
		t.Helper()
		before := setups()
		if _, err := s.Infer(context.Background(), x); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		perParty(what, before, want)
	}
	for _, bank := range []int{0, 2} {
		cfg := testCfg()
		cfg.BankDepth = bank
		h := newSessionHarness(t, m, cfg)
		before := setups()
		s, err := NewClient(h.dial, cfg).OpenSession(context.Background(), m)
		if err != nil {
			t.Fatalf("OpenSession: %v", err)
		}
		if bank == 0 {
			perParty("no-plane open", before, 1)
			infer(s, "cold seq", 0)
			infer(s, "second cold seq", 0)
		} else {
			// The open starts the filler, whose set-up may land before
			// OpenSession returns: the open and the two-kit fill are one
			// phase.
			if !s.WarmupPreproc(2) || !s.DrainPreproc() {
				t.Fatal("the preprocessing plane did not fill two kits")
			}
			perParty("open and a fill plane of two kits", before, 1)
			infer(s, "warm seq", 0)
			infer(s, "second warm seq", 0)
			infer(s, "first cold seq", 1)
			infer(s, "second cold seq", 0)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		h.wg.Wait()
	}
}

// TestFixedSeedStreamsDistinct: the OT endpoint under the fixed-choice
// seed OTs draws a stream of its own per session token, per stream (main
// or fill) and per party, so two runs that share IKNP randomness are
// re-runs of one set-up — same choice bits, same messages — never two
// different ones. No 16-byte block of a stream's first 64 KiB recurs in
// another's, over tokens that differ in either half, nor in the session's
// seed-pair streams.
func TestFixedSeedStreamsDistinct(t *testing.T) {
	cfg := testCfg()
	tokens := []SessionToken{{1}, {2}, {1, 8: 1}}
	seen := map[[ot.SeedLen]byte]string{}
	draw := func(name string, seed uint64) {
		b := make([]byte, 1<<16)
		prg.NewSeeded(seed).Read(b)
		for off := 0; off < len(b); off += ot.SeedLen {
			k := [ot.SeedLen]byte(b[off:])
			if prev, ok := seen[k]; ok {
				t.Fatalf("%s shares a block with %s", name, prev)
			}
			seen[k] = name
		}
	}
	for ti, tok := range tokens {
		for party := range 2 {
			draw(fmt.Sprintf("token %d party %d main OTs", ti, party), tokenSeed(cfg, fixedMainSalt, party, tok))
			draw(fmt.Sprintf("token %d party %d fill OTs", ti, party), tokenSeed(cfg, fixedFillSalt, party, tok))
			draw(fmt.Sprintf("token %d party %d seed pairs", ti, party), tokenSeed(cfg, fixedSeedSalt, party, tok))
		}
	}
}
