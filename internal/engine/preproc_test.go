package engine

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/ot"
	"aq2pnn/internal/preproc"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/testutil"
	"aq2pnn/internal/transport"
)

// runSessionLogits opens one persistent session against a fresh harness
// (fresh registry ⇒ deterministic token stream ⇒ identical per-session B
// masks across calls) and runs n inferences, returning each one's logits
// and online stats.
func runSessionLogits(t *testing.T, m *nn.Model, x []int64, cfg Options, n int) ([][]int64, []transport.Stats) {
	t.Helper()
	h := newSessionHarness(t, m, cfg)
	s, err := NewClient(h.dial, cfg).OpenSession(context.Background(), m)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	var logits [][]int64
	var online []transport.Stats
	for i := 0; i < n; i++ {
		res, err := s.Infer(context.Background(), x)
		if err != nil {
			t.Fatalf("inference %d: %v", i, err)
		}
		logits = append(logits, res.Logits)
		online = append(online, res.Online)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	h.wg.Wait()
	for i, err := range h.providerErrs() {
		if err != nil {
			t.Errorf("provider session %d: %v", i, err)
		}
	}
	return logits, online
}

// descendantOfRoot reports, for every span record, whether it descends
// from a root whose name matches rootName.
func underRoot(spans []telemetry.SpanRecord, rootName string) map[uint64]bool {
	byID := map[uint64]telemetry.SpanRecord{}
	for _, r := range spans {
		byID[r.ID] = r
	}
	under := map[uint64]bool{}
	var from func(id uint64) bool
	from = func(id uint64) bool {
		r, ok := byID[id]
		if !ok {
			return false
		}
		if r.Parent == 0 {
			return r.Name == rootName
		}
		return from(r.Parent)
	}
	for _, r := range spans {
		under[r.ID] = from(r.ID)
	}
	return under
}

// TestSessionPreprocWarmMatchesCold is the tentpole acceptance scenario:
// a warm-bank session reveals logits bit-identical to the cold (inline
// generation) session at every Workers setting, and its steady-state
// inference roots carry no triple generation — every triple.gilboa span
// lives under a preproc.fill root instead.
func TestSessionPreprocWarmMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked sessions")
	}
	m := tinyModel(nn.PoolAvg)
	x := input(64)
	const inferences = 3
	for _, workers := range []uint{1, 2, 4} {
		cfg := testCfg()
		cfg.Workers = workers
		cold, coldOnline := runSessionLogits(t, m, x, cfg, inferences)

		wcfg := cfg
		wcfg.BankDepth = 2
		tr := telemetry.New()
		wcfg.Trace = tr
		warm, warmOnline := runSessionLogits(t, m, x, wcfg, inferences)

		for i := range cold {
			if len(cold[i]) == 0 || len(warm[i]) != len(cold[i]) {
				t.Fatalf("workers=%d inference %d: warm %d logits, cold %d", workers, i, len(warm[i]), len(cold[i]))
			}
			for j := range cold[i] {
				if warm[i][j] != cold[i][j] {
					t.Fatalf("workers=%d inference %d: warm logits %v, want bit-identical to cold %v",
						workers, i, warm[i], cold[i])
				}
			}
		}
		// The warm online path consumes precomputed kits, so its per-
		// inference traffic must be strictly below the cold path's (the
		// Gilboa exchanges moved to the fill stream), and byte-identical
		// across steady-state inferences.
		for i := range warmOnline {
			if warmOnline[i].TotalBytes() >= coldOnline[i].TotalBytes() {
				t.Errorf("workers=%d inference %d: warm online %d bytes, want < cold %d",
					workers, i, warmOnline[i].TotalBytes(), coldOnline[i].TotalBytes())
			}
			if warmOnline[i] != warmOnline[0] {
				t.Errorf("workers=%d inference %d online %+v, want byte-identical to inference 0 %+v",
					workers, i, warmOnline[i], warmOnline[0])
			}
		}
		// Trace discipline: generation spans live only under fill roots.
		spans := tr.Spans()
		fills := 0
		for _, r := range spans {
			if r.Parent == 0 && r.Name == "user.preproc.fill" {
				fills++
			}
		}
		// The filler runs ahead of consumption, so it fills at least one
		// kit per inference and at most BankDepth beyond the last Take.
		if fills < inferences || fills > inferences+wcfg.BankDepth {
			t.Errorf("workers=%d: %d user.preproc.fill roots, want %d..%d",
				workers, fills, inferences, inferences+wcfg.BankDepth)
		}
		inInfer := underRoot(spans, "user.session.infer")
		inFill := underRoot(spans, "user.preproc.fill")
		for _, r := range spans {
			if r.Name != "triple.gilboa" {
				continue
			}
			if inInfer[r.ID] {
				t.Errorf("workers=%d: triple.gilboa span under a warm user.session.infer root", workers)
			}
			if !inFill[r.ID] {
				t.Errorf("workers=%d: triple.gilboa span outside the preproc.fill roots", workers)
			}
		}
	}
}

// TestSessionPreprocDrain: draining the plane mid-session stops and joins
// the filler but keeps the banked kits serving; inferences past the
// banked horizon degrade to inline generation — all bit-identical to the
// cold session, with no goroutine left behind.
func TestSessionPreprocDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked sessions")
	}
	m := tinyModel(nn.PoolAvg)
	x := input(64)
	const inferences = 3
	cfg := testCfg()
	want, coldOnline := runSessionLogits(t, m, x, cfg, inferences)

	base := runtime.NumGoroutine()
	wcfg := cfg
	wcfg.BankDepth = 2
	h := newSessionHarness(t, m, wcfg)
	s, err := NewClient(h.dial, wcfg).OpenSession(context.Background(), m)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	if !s.WarmupPreproc(wcfg.BankDepth) {
		t.Fatal("warm-up failed on a healthy plane")
	}
	if !s.DrainPreproc() {
		t.Fatal("DrainPreproc = false on a live plane")
	}
	if s.DrainPreproc() {
		t.Error("second DrainPreproc = true, want false (already drained)")
	}
	var online []transport.Stats
	for i := 0; i < inferences; i++ {
		res, err := s.Infer(context.Background(), x)
		if err != nil {
			t.Fatalf("inference %d: %v", i, err)
		}
		for j := range want[i] {
			if res.Logits[j] != want[i][j] {
				t.Fatalf("inference %d: drained-plane logits %v, want bit-identical %v", i, res.Logits, want[i])
			}
		}
		online = append(online, res.Online)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	h.wg.Wait()
	for i, err := range h.providerErrs() {
		if err != nil {
			t.Errorf("provider session %d: %v", i, err)
		}
	}
	// The banked inferences ride the warm wire protocol; the one past the
	// horizon falls back to the cold path's exact traffic.
	for i := 0; i < wcfg.BankDepth; i++ {
		if online[i].TotalBytes() >= coldOnline[i].TotalBytes() {
			t.Errorf("banked inference %d: online %d bytes, want < cold %d",
				i, online[i].TotalBytes(), coldOnline[i].TotalBytes())
		}
	}
	if online[inferences-1] != coldOnline[inferences-1] {
		t.Errorf("starved inference online %+v, want the cold path's %+v",
			online[inferences-1], coldOnline[inferences-1])
	}
	testutil.CheckGoroutines(t, base)
}

// TestSessionPreprocFillAttribution pins the fill root's comm accounting:
// each user.preproc.fill root carries the whole fill-stream traffic of its
// seq, covered exactly by its direct children (demand, per-layer gilboa,
// ack) — the tracecheck invariant for comm-carrying roots.
func TestSessionPreprocFillAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked session")
	}
	m := tinyModel(nn.PoolAvg)
	cfg := testCfg()
	cfg.BankDepth = 1
	tr := telemetry.New()
	cfg.Trace = tr
	_, _ = runSessionLogits(t, m, input(64), cfg, 2)
	spans := tr.Spans()
	children := map[uint64][]telemetry.SpanRecord{}
	for _, r := range spans {
		children[r.Parent] = append(children[r.Parent], r)
	}
	fills := 0
	for _, r := range spans {
		if r.Parent != 0 || r.Name != "user.preproc.fill" {
			continue
		}
		fills++
		var sum transport.Stats
		for _, c := range children[r.ID] {
			sum.BytesSent += c.Comm.BytesSent
			sum.BytesRecv += c.Comm.BytesRecv
		}
		if r.Comm.TotalBytes() == 0 {
			t.Error("fill root moved zero bytes")
		}
		if sum.BytesSent != r.Comm.BytesSent || sum.BytesRecv != r.Comm.BytesRecv {
			t.Errorf("fill root bytes (%d sent, %d recv) not covered by children (%d, %d)",
				r.Comm.BytesSent, r.Comm.BytesRecv, sum.BytesSent, sum.BytesRecv)
		}
	}
	if fills == 0 {
		t.Fatal("no user.preproc.fill roots recorded")
	}
}

// TestSessionPreprocChaos sweeps faults over the preprocessing stream on
// either side: the plane must degrade to synchronous inline generation —
// never block, never corrupt — with every inference's logits bit-identical
// to the clean cold run, the session completing cleanly, and no goroutine
// leaked. Run with -race in CI.
func TestSessionPreprocChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep over networked sessions")
	}
	m := tinyModel(nn.PoolAvg)
	x := input(64)
	const inferences = 3
	cfg := testCfg()
	want, _ := runSessionLogits(t, m, x, cfg, inferences)

	base := runtime.NumGoroutine()
	for _, side := range []struct {
		name  string
		party int
	}{{"user-filler", 0}, {"provider-filler", 1}} {
		for _, plan := range []struct {
			name string
			p    transport.FaultPlan
		}{
			{"immediate-death", transport.FaultPlan{FailAfter: 0}},
			{"mid-fill-drop", transport.FaultPlan{FailAfter: 7}},
			{"mid-fill-corrupt", transport.FaultPlan{FailAfter: 7, Corrupt: true}},
			{"late-drop", transport.FaultPlan{FailAfter: 40}},
		} {
			t.Run(side.name+"/"+plan.name, func(t *testing.T) {
				defer func() { preprocFaultWrap = nil }()
				preprocFaultWrap = func(party int, c transport.Conn) transport.Conn {
					if party == side.party {
						return transport.NewFaults(plan.p, nil).Wrap(c)
					}
					return c
				}
				wcfg := cfg
				wcfg.BankDepth = 2
				got, _ := runSessionLogits(t, m, x, wcfg, inferences)
				for i := range want {
					for j := range want[i] {
						if got[i][j] != want[i][j] {
							t.Fatalf("inference %d: faulted-plane logits %v, want bit-identical %v", i, got[i], want[i])
						}
					}
				}
			})
		}
	}
	testutil.CheckGoroutines(t, base)
}

// TestSessionPreprocResumeAfterMainFault faults the MAIN stream of a warm
// session mid-inference: the client re-attaches through the resumption
// token, rebuilds the fill plane on the new connection, and the replayed
// seq reveals logits bit-identical to the unfaulted warm session.
func TestSessionPreprocResumeAfterMainFault(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked sessions")
	}
	m := tinyModel(nn.PoolAvg)
	x := input(64)
	const inferences = 3
	cfg := testCfg()
	cfg.BankDepth = 2
	cfg.Retries = 2
	cfg.RetryBase = 5 * time.Millisecond
	ctx := context.Background()

	// Probe session: reference logits, plus the op counts that place the
	// fault. Setup stats count the raw (pre-mux) connection, so failAt
	// lands past the open; the concurrent fill traffic shares the raw op
	// budget, which only moves the cut earlier into inference 1's window —
	// wherever it lands, the client must recover to identical logits.
	h := newSessionHarness(t, m, cfg)
	s, err := NewClient(h.dial, cfg).OpenSession(ctx, m)
	if err != nil {
		t.Fatalf("probe open: %v", err)
	}
	setup := s.SetupStats()
	var want [][]int64
	inferOps := 0
	for i := 0; i < inferences; i++ {
		res, err := s.Infer(ctx, x)
		if err != nil {
			t.Fatalf("probe inference %d: %v", i, err)
		}
		want = append(want, res.Logits)
		inferOps = int(res.Online.MsgsSent + res.Online.MsgsRecv)
	}
	s.Close()
	h.wg.Wait()
	failAt := int(setup.MsgsSent+setup.MsgsRecv) + inferOps + inferOps/2

	h2 := newSessionHarness(t, m, cfg)
	h2.wrap = func(dial int, c transport.Conn) transport.Conn {
		if dial == 1 {
			return transport.NewFaults(transport.FaultPlan{FailAfter: failAt}, nil).Wrap(c)
		}
		return nil
	}
	h2.beforeDial = func(dial int) {
		if dial == 2 {
			h2.waitProviderDone(1)
		}
	}
	s2, err := NewClient(h2.dial, cfg).OpenSession(ctx, m)
	if err != nil {
		t.Fatalf("open faulted session: %v", err)
	}
	for i := 0; i < inferences; i++ {
		res, err := s2.Infer(ctx, x)
		if err != nil {
			t.Fatalf("inference %d: %v", i, err)
		}
		for j := range want[i] {
			if res.Logits[j] != want[i][j] {
				t.Fatalf("inference %d: resumed warm logits %v, want bit-identical %v", i, res.Logits, want[i])
			}
		}
	}
	s2.Close()
	h2.wg.Wait()
}

// armedFault fails every operation of a connection once it has been armed
// and has passed left more operations.
type armedFault struct {
	transport.Conn
	mu    sync.Mutex
	armed bool
	left  int
}

func (c *armedFault) arm(after int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed, c.left = true, after
}

func (c *armedFault) op() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.armed {
		return nil
	}
	if c.left == 0 {
		return transport.ErrInjected
	}
	c.left--
	return nil
}

func (c *armedFault) Send(p []byte) error {
	if err := c.op(); err != nil {
		return err
	}
	return c.Conn.Send(p)
}

func (c *armedFault) Recv() ([]byte, error) {
	if err := c.op(); err != nil {
		return nil, err
	}
	return c.Conn.Recv()
}

// TestSessionRetriedSeqRunsCold faults the connection in the middle of a
// warm inference, after the plane was drained so that only that
// inference's traffic counts. The retry of the seq must run cold — its
// online traffic is exactly the cold path's, triple generation included,
// because both parties dropped its kit when the faulted attempt took it —
// with the cold path's logits, and the next seq must run warm again from
// the plane re-established after the fault.
func TestSessionRetriedSeqRunsCold(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked sessions")
	}
	m := tinyModel(nn.PoolAvg)
	x := input(64)
	cfg := testCfg()
	cfg.Retries = 2
	cfg.RetryBase = 5 * time.Millisecond
	want, coldOnline := runSessionLogits(t, m, x, cfg, 2)

	wcfg := cfg
	wcfg.BankDepth = 1
	_, warmOnline := runSessionLogits(t, m, x, wcfg, 1)

	h := newSessionHarness(t, m, wcfg)
	var fc *armedFault
	h.wrap = func(dial int, c transport.Conn) transport.Conn {
		if dial == 1 {
			fc = &armedFault{Conn: c}
			return fc
		}
		return nil
	}
	h.beforeDial = func(dial int) {
		if dial == 2 {
			h.waitProviderDone(1)
		}
	}
	ctx := context.Background()
	s, err := NewClient(h.dial, wcfg).OpenSession(ctx, m)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	if !s.WarmupPreproc(1) || !s.DrainPreproc() {
		t.Fatal("the preprocessing plane did not fill one kit")
	}
	fc.arm(int(warmOnline[0].MsgsSent+warmOnline[0].MsgsRecv) / 2)
	var online []transport.Stats
	for i := range want {
		res, err := s.Infer(ctx, x)
		if err != nil {
			t.Fatalf("inference %d: %v", i, err)
		}
		for j := range want[i] {
			if res.Logits[j] != want[i][j] {
				t.Fatalf("inference %d: logits %v, want the cold path's %v", i, res.Logits, want[i])
			}
		}
		online = append(online, res.Online)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	h.wg.Wait()
	if h.dials != 2 {
		t.Fatalf("%d dials, want 2: the fault did not force exactly one retry", h.dials)
	}
	if online[0] != coldOnline[0] {
		t.Errorf("retried seq online %+v, want the cold path's %+v", online[0], coldOnline[0])
	}
	if online[1].TotalBytes() >= coldOnline[1].TotalBytes() {
		t.Errorf("seq after the retry moved %d online bytes, want the warm path's, below cold %d",
			online[1].TotalBytes(), coldOnline[1].TotalBytes())
	}
}

// TestRetriedSeqDrawsFreshOTStream checks that a warm attempt of a seq and
// its cold retry share no OT-endpoint stream, for both parties. The warm
// attempt, on an endpoint derived from its kit's plane, and the retry, on
// one derived from the main plane, each draw their extension choice bits
// from a stream of their own. Were they the same bytes, the peer would see
// two shifts c⊕r under the same r. Every 16-byte
// block of the retry stream's first 4 KiB must be absent, at any offset,
// from more stream than a warm inference of this model draws. Cold binds
// of the seq must draw one stream, so that a cold seq retried again
// extends its plane namespace under the same choice bits and replays its
// transcript.
func TestRetriedSeqDrawsFreshOTStream(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked sessions")
	}
	m := tinyModel(nn.PoolAvg)
	cfg := testCfg()
	h := newSessionHarness(t, m, cfg)
	s, err := NewClient(h.dial, cfg).OpenSession(context.Background(), m)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	const warmDrawn, retryDrawn = 1 << 18, 2 * ot.ExtKappa * ot.SeedLen
	for party := range 2 {
		stream := func(kit *preproc.Kit, n int) []byte {
			ctx, _ := s.st.bindInfer(nil, party, cfg, 0, kit)
			b := make([]byte, n)
			ctx.OT.Rng.Read(b)
			return b
		}
		warm := stream(&preproc.Kit{Plane: s.st.plane}, warmDrawn)
		retry := stream(nil, retryDrawn)
		if !bytes.Equal(retry, stream(nil, retryDrawn)) {
			t.Errorf("party %d: two cold binds of a seq draw different OT streams", party)
		}
		for off := 0; off < len(retry); off += ot.SeedLen {
			if i := bytes.Index(warm, retry[off:off+ot.SeedLen]); i >= 0 {
				t.Fatalf("party %d: the retry's OT stream block at byte %d is byte %d of the warm attempt's", party, off, i)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	h.wg.Wait()
}
