package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/testutil"
	"aq2pnn/internal/transport"
)

// Hostile-peer integration tests: adversarial clients (garbage bytes,
// giant declared lengths, truncations, slow-loris stalls) against a
// serving provider. The contract: no panic, no goroutine leak, bounded
// allocation, typed errors on the defence counters — and honest sessions
// running alongside stay bit-identical.

// rawFrame prefixes p with the transport's 4-byte little-endian length.
func rawFrame(p []byte) []byte {
	hdr := make([]byte, 4+len(p))
	binary.LittleEndian.PutUint32(hdr, uint32(len(p)))
	copy(hdr[4:], p)
	return hdr
}

func counterValue(name string) uint64 {
	return telemetry.Default().Counter(name).Value()
}

// TestGarbagePeerSweep runs a provider with full hostile-peer defences
// while a pack of adversarial raw-TCP clients attacks it and two honest
// clients run real inferences through the crossfire.
func TestGarbagePeerSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked sessions")
	}
	telemetry.Enable()
	m := tinyModel(nn.PoolAvg)
	cfg := testCfg()
	cfg.MaxConcurrentSessions = 8
	// The idle timeout must outlast an honest party's longest think-time
	// between frames, which the race detector stretches considerably.
	cfg.IdleTimeout = time.Second
	if raceEnabled {
		cfg.IdleTimeout = 20 * time.Second
	}
	cfg.MemBudget = 64 << 20
	cfg.Retries = 6
	cfg.RetryBase = 30 * time.Millisecond
	x := input(m.InputShape().Numel())
	// A session's transcript is a function of (seed, token), and the
	// honest clients below are minted the provider's first tokens in
	// whatever order they land: one reference per token they may hold.
	var wants [][]int64
	for ref := registryOf(t, m); len(wants) < 4; {
		_, _, want := cleanRun(t, ref, m, x, cfg)
		wants = append(wants, want)
	}
	base := runtime.NumGoroutine()
	rejectedBefore := counterValue("aq2pnn_frames_rejected_total")
	idleBefore := counterValue("aq2pnn_idle_timeouts_total")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var sessionErrs []error
	addr, done := serveOnce(t, ctx, cfg, m, 0, func(err error) {
		mu.Lock()
		sessionErrs = append(sessionErrs, err)
		mu.Unlock()
	})

	hello := userHello(m, cfg).encode()
	g := prg.NewSeeded(99)
	random := make([]byte, 512)
	g.Read(random)

	// Adversarial behaviors. Each writes its poison and (except the
	// slow-loris, which must outlive the idle timeout) closes.
	adversaries := [][]byte{
		random,                             // raw garbage, not even framed
		{0xFF, 0xFF, 0xFF, 0xFF, 'x'},      // header declaring a 4 GiB frame
		{0x40, 0x00, 0x00, 0x00, 'a', 'b'}, // 64-byte frame truncated after 2
		append(rawFrame(hello), rawFrame([]byte("not an attach frame"))...), // valid hello, garbage attach
	}
	var adv sync.WaitGroup
	for _, payload := range adversaries {
		adv.Add(1)
		go func(p []byte) {
			defer adv.Done()
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			if _, err := c.Write(p); err != nil {
				return
			}
			// Linger so buffered poison is fully read before the FIN —
			// the server must reject on content, not rely on the close.
			time.Sleep(500 * time.Millisecond)
		}(payload)
	}
	// Slow-loris: two bytes of a hello, then silence past the idle
	// timeout. Held open until the server has killed the session.
	loris, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer loris.Close()
	if _, err := loris.Write([]byte{'A', 'Q'}); err != nil {
		t.Fatal(err)
	}

	// Honest clients run full retrying sessions of one through the noise.
	dial := func(ctx context.Context) (transport.Conn, error) {
		return transport.DialContext(ctx, addr, 5*time.Second)
	}
	var honest sync.WaitGroup
	honestErrs := make([]error, 2)
	honestLogits := make([][]int64, 2)
	for i := 0; i < 2; i++ {
		honest.Add(1)
		go func(i int) {
			defer honest.Done()
			res, err := inferOnce(ctx, dial, m, x, cfg)
			honestErrs[i] = err
			if res != nil {
				honestLogits[i] = res.Logits
			}
		}(i)
	}
	honest.Wait()
	adv.Wait()

	// Wait until the server has disposed of every adversarial session
	// (4 writers + 1 slow-loris) on top of the 2 honest ones. The
	// slow-loris only dies after a full idle timeout.
	deadline := time.Now().Add(cfg.IdleTimeout + 20*time.Second)
	for {
		mu.Lock()
		n := len(sessionErrs)
		mu.Unlock()
		if n >= 7 || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("server returned %v after the sweep, want nil", err)
	}

	for i, err := range honestErrs {
		if err != nil {
			t.Errorf("honest client %d failed through the noise: %v", i, err)
			continue
		}
		if !slices.ContainsFunc(wants, func(want []int64) bool { return slices.Equal(honestLogits[i], want) }) {
			t.Errorf("honest client %d: logits %v match no fault-free reference %v (corrupted by hostile traffic)", i, honestLogits[i], wants)
		}
	}
	mu.Lock()
	for _, err := range sessionErrs {
		if err != nil && strings.Contains(err.Error(), "session panic") {
			t.Errorf("hostile input reached a panic: %v", err)
		}
	}
	mu.Unlock()
	if got := counterValue("aq2pnn_frames_rejected_total") - rejectedBefore; got < 1 {
		t.Errorf("aq2pnn_frames_rejected_total rose by %d, want >= 1", got)
	}
	if got := counterValue("aq2pnn_idle_timeouts_total") - idleBefore; got < 1 {
		t.Errorf("aq2pnn_idle_timeouts_total rose by %d, want >= 1", got)
	}
	loris.Close()
	testutil.CheckGoroutines(t, base)
}

// TestAdmissionControl checks load shedding end to end: with one
// admission slot held, a second client is shed with ErrServerBusy (a
// transient error), and a retrying client eventually lands the session
// once the slot frees.
func TestAdmissionControl(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked sessions")
	}
	telemetry.Enable()
	m := tinyModel(nn.PoolAvg)
	cfg := testCfg()
	cfg.MaxConcurrentSessions = 1
	cfg.Retries = 10
	cfg.RetryBase = 30 * time.Millisecond
	shedBefore := counterValue("aq2pnn_sessions_shed_total")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, done := serveOnce(t, ctx, cfg, m, 0, nil)

	// Occupy the only slot with a connection that never speaks.
	holder, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)

	// A single attempt must be shed with the typed, transient error.
	conn, err := transport.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	single := cfg
	single.Retries = 0
	_, err = inferOnce(ctx, over(conn), m, input(m.InputShape().Numel()), single)
	conn.Close()
	if !errors.Is(err, transport.ErrServerBusy) {
		t.Fatalf("session against a full server returned %v, want ErrServerBusy", err)
	}
	if !transport.IsTransient(err) {
		t.Errorf("ErrServerBusy classified permanent; retry loops would give up")
	}
	if got := counterValue("aq2pnn_sessions_shed_total") - shedBefore; got < 1 {
		t.Errorf("aq2pnn_sessions_shed_total rose by %d, want >= 1", got)
	}

	// A retrying client keeps backing off while the slot is held...
	dial := func(ctx context.Context) (transport.Conn, error) {
		return transport.DialContext(ctx, addr, 5*time.Second)
	}
	resCh := make(chan error, 1)
	go func() {
		_, err := inferOnce(ctx, dial, m, input(m.InputShape().Numel()), cfg)
		resCh <- err
	}()
	time.Sleep(150 * time.Millisecond)
	// ...and succeeds once the holder releases the slot.
	holder.Close()
	select {
	case err := <-resCh:
		if err != nil {
			t.Fatalf("retrying client failed after the slot freed: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("retrying client never completed after the slot freed")
	}
	cancel()
	<-done
}

// TestIdleTimeoutKillsStalledPeer: a client that stalls mid-setup (a
// deterministic slow-loris via FaultPlan.Stall) must not pin the
// provider: the idle timeout cuts the session within the configured
// bound, with a transient, typed error.
func TestIdleTimeoutKillsStalledPeer(t *testing.T) {
	m := tinyModel(nn.PoolAvg)
	cfg := testCfg()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	cl, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sv := <-accepted

	provider := transport.NewNetConnLimits(sv, transport.Limits{IdleTimeout: 300 * time.Millisecond})
	defer provider.Close()
	// Op 4 is the user's Recv of the weight-share header: the provider
	// ships its shares and is left blocking on the user's half of the
	// first F opening for the whole 2 s stall.
	user := transport.NewChaosConn(transport.NewNetConn(cl), transport.FaultPlan{
		FailAfter: -1, Stall: 2 * time.Second, StallAt: 4,
	})
	defer user.Close()

	provErr := make(chan error, 1)
	start := time.Now()
	reg := registryOf(t, m)
	go func() { provErr <- provideConn(provider, reg, cfg) }()
	userDone := make(chan struct{})
	go func() {
		defer close(userDone)
		_, _ = inferOnce(context.Background(), over(user), m, input(m.InputShape().Numel()), cfg)
	}()

	select {
	case err := <-provErr:
		elapsed := time.Since(start)
		if !errors.Is(err, transport.ErrIdleTimeout) {
			t.Errorf("stalled peer produced %v, want ErrIdleTimeout in the chain", err)
		}
		if !transport.IsTransient(err) {
			t.Errorf("idle-timeout error classified permanent")
		}
		if elapsed > 1500*time.Millisecond {
			t.Errorf("provider took %v to cut the stalled peer, want well under the 2s stall", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("provider still pinned by the stalled peer after 10s")
	}
	provider.Close()
	<-userDone
}

// TestHandshakeRejectsTruncatedAndGarbage drives the strict hello
// framing through a real client's open: short frames, trailing garbage
// and wrong magic in hello position are permanent typed rejections; the
// busy frame maps onto the transient ErrServerBusy.
func TestHandshakeRejectsTruncatedAndGarbage(t *testing.T) {
	m := tinyModel(nn.PoolAvg)
	cfg := testCfg()
	valid := helloFor(roleProvider, m, cfg.Carrier(m), cfg).encode()
	cases := []struct {
		name      string
		frame     []byte
		wantBusy  bool
		transient bool
	}{
		{name: "3 bytes", frame: []byte("AQ2")},
		{name: "19 bytes", frame: valid[:19]},
		{name: "trailing garbage", frame: append(append([]byte{}, valid...), 0xEE)},
		{name: "wrong magic", frame: append([]byte("NOPE"), valid[4:]...)},
		{name: "empty", frame: []byte{}},
		{name: "busy frame", frame: busyFrame(), wantBusy: true, transient: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := transport.Pipe()
			defer a.Close()
			defer b.Close()
			// The peer swallows the pipelined hello and attach, then
			// answers with the frame under test.
			sendErr := make(chan error, 1)
			go func() {
				for i := 0; i < 2; i++ {
					if _, err := b.Recv(); err != nil {
						sendErr <- err
						return
					}
				}
				sendErr <- b.Send(tc.frame)
			}()
			_, err := NewClient(over(a), cfg).OpenSession(context.Background(), m)
			if err == nil {
				t.Fatal("malformed hello accepted")
			}
			if <-sendErr != nil {
				t.Fatal("pipe exchange failed")
			}
			if tc.wantBusy {
				if !errors.Is(err, transport.ErrServerBusy) {
					t.Errorf("busy frame produced %v, want ErrServerBusy", err)
				}
			} else {
				var he *HandshakeError
				if !errors.As(err, &he) {
					t.Errorf("got %v, want a *HandshakeError", err)
				}
			}
			if transport.IsTransient(err) != tc.transient {
				t.Errorf("IsTransient(%v) = %v, want %v", err, !tc.transient, tc.transient)
			}
		})
	}
}

// TestHandshakeStallFailsFast: a peer that opens a session, delivers
// three bytes and stalls must be cut off by the handshake deadline, not
// pin the provider until the TCP keepalive gives up.
func TestHandshakeStallFailsFast(t *testing.T) {
	m := tinyModel(nn.PoolAvg)
	cfg := testCfg()
	cfg.HandshakeTimeout = 300 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	cl, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	conn := transport.NewNetConn(<-accepted)
	defer conn.Close()
	start := time.Now()
	err = provideConn(conn, registryOf(t, m), cfg)
	elapsed := time.Since(start)
	var he *HandshakeError
	if !errors.As(err, &he) {
		t.Fatalf("stalled handshake produced %v, want *HandshakeError", err)
	}
	if !errors.Is(err, transport.ErrIdleTimeout) {
		t.Errorf("stalled handshake error %v does not carry ErrIdleTimeout", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("handshake stall took %v to fail, want ~300ms", elapsed)
	}
}
