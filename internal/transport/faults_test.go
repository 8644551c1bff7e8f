package transport

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestChaosConnDropAtK checks a single connection runs FailAfter operations
// normally, then trips: the tripping and every later operation return
// ErrInjected, and the trip closes the connection under the peer.
func TestChaosConnDropAtK(t *testing.T) {
	a, b := Pipe()
	defer b.Close()
	f := NewFaults(FaultPlan{FailAfter: 2}, nil).Wrap(a)
	mustSend(t, f, []byte{1})
	mustSend(t, f, []byte{2})
	if err := f.Send([]byte{3}); !errors.Is(err, ErrInjected) {
		t.Fatalf("third op returned %v, want ErrInjected", err)
	}
	if _, err := f.Recv(); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-budget recv returned %v, want ErrInjected", err)
	}
	s := f.Stats()
	if s.MsgsSent != 2 || s.SendErrs != 1 || s.RecvErrs != 1 {
		t.Errorf("stats %+v: want 2 sends, 1 send err, 1 recv err", s)
	}
	for i, want := range []byte{1, 2} {
		if p := mustRecv(t, b); !bytes.Equal(p, []byte{want}) {
			t.Errorf("peer frame %d = %v, want [%d]", i, p, want)
		}
	}
	wantClosed(t, b)
}

// TestFaultyConn checks the FailAfter: 2 budget on its own: two sends
// pass, the third and every later operation return ErrInjected.
func TestFaultyConn(t *testing.T) {
	a, b := Pipe()
	defer b.Close()
	f := NewFaults(FaultPlan{FailAfter: 2}, nil).Wrap(a)
	mustSend(t, f, []byte{1})
	mustSend(t, f, []byte{2})
	if err := f.Send([]byte{3}); !errors.Is(err, ErrInjected) {
		t.Errorf("third op = %v, want injected fault", err)
	}
	if _, err := f.Recv(); !errors.Is(err, ErrInjected) {
		t.Errorf("recv after budget = %v", err)
	}
}

func TestFaultsUnlimitedBudget(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	faults := NewFaults(FaultPlan{FailAfter: -1}, nil)
	f := faults.Wrap(a)
	for i := 0; i < 100; i++ {
		if err := f.Send([]byte{byte(i)}); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if got := f.Stats().MsgsSent; got != 100 {
		t.Errorf("sent %d msgs, want 100", got)
	}
	if faults.Ops() != 100 || faults.Dead() {
		t.Errorf("Ops() = %d, Dead() = %v: want 100 ops and alive", faults.Ops(), faults.Dead())
	}
}

func TestFaultsPartialWrite(t *testing.T) {
	a, b := Pipe()
	defer b.Close()
	f := NewFaults(FaultPlan{FailAfter: 1, PartialWrite: true}, nil).Wrap(a)
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	mustSend(t, f, payload)
	if err := f.Send(payload); !errors.Is(err, ErrInjected) {
		t.Fatalf("failing send returned %v, want ErrInjected", err)
	}
	// A second failing send must NOT deliver another fragment.
	if err := f.Send(payload); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-failure send returned %v, want ErrInjected", err)
	}
	if first := mustRecv(t, b); !bytes.Equal(first, payload) {
		t.Errorf("intact frame arrived as %v", first)
	}
	if frag := mustRecv(t, b); !bytes.Equal(frag, payload[:4]) {
		t.Errorf("truncated frame arrived as %v, want first half %v", frag, payload[:4])
	}
	wantClosed(t, b)
}

// TestFaultsLatencySchedule checks the injected delays without a wall
// clock: the schedule is a pure function of Seed and the operation index,
// every latency lies in [0, MaxLatency), and Stall lands on StallAt only.
func TestFaultsLatencySchedule(t *testing.T) {
	const ops = 64
	maxLat := 5 * time.Millisecond
	schedule := func(p FaultPlan) []time.Duration {
		out := make([]time.Duration, ops)
		for i := range out {
			out[i] = p.Delay(uint64(i))
		}
		return out
	}
	s3 := schedule(FaultPlan{MaxLatency: maxLat, Seed: 3})
	again := schedule(FaultPlan{MaxLatency: maxLat, Seed: 3})
	s4 := schedule(FaultPlan{MaxLatency: maxLat, Seed: 4})
	same, distinct := true, map[time.Duration]bool{}
	for i := range s3 {
		if s3[i] < 0 || s3[i] >= maxLat || s4[i] < 0 || s4[i] >= maxLat {
			t.Fatalf("op %d: delays %v / %v outside [0, %v)", i, s3[i], s4[i], maxLat)
		}
		if s3[i] != again[i] {
			t.Fatalf("op %d: seed 3 gave %v then %v", i, s3[i], again[i])
		}
		same = same && s3[i] == s4[i]
		distinct[s3[i]] = true
	}
	if same {
		t.Error("seeds 3 and 4 gave the same schedule")
	}
	if len(distinct) < ops/2 {
		t.Errorf("only %d distinct delays over %d ops", len(distinct), ops)
	}
	stall := FaultPlan{MaxLatency: maxLat, Seed: 3, Stall: time.Hour, StallAt: 7}
	for i, d := range schedule(stall) {
		want := s3[i]
		if i == 7 {
			want += time.Hour
		}
		if d != want {
			t.Errorf("op %d with a stall at 7: delay %v, want %v", i, d, want)
		}
	}
	if d := (FaultPlan{}).Delay(0); d != 0 {
		t.Errorf("zero plan delays op 0 by %v", d)
	}
}

// TestChaosConnCorruptFlipsLastRecv checks a one-operation Corrupt plan
// garbles the only permitted Recv.
func TestChaosConnCorruptFlipsLastRecv(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	mustSend(t, b, []byte{9, 9, 9, 9})
	f := NewFaults(FaultPlan{FailAfter: 1, Corrupt: true}, nil).Wrap(a)
	if p := mustRecv(t, f); bytes.Equal(p, []byte{9, 9, 9, 9}) {
		t.Error("final permitted recv was not corrupted")
	}
}

// TestFaultyConnCorruption checks the corrupted byte exactly: the middle
// byte of a 3-byte frame becomes 0xFF.
func TestFaultyConnCorruption(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	f := NewFaults(FaultPlan{FailAfter: 1, Corrupt: true}, nil).Wrap(b)
	mustSend(t, a, []byte{0, 0, 0})
	if p := mustRecv(t, f); p[1] != 0xFF {
		t.Error("corruption not applied on final op")
	}
}

// TestProcessFaultsCorruptLastRecv checks Corrupt flips exactly the middle
// byte of the final permitted Recv, leaves earlier Recvs intact, and that
// the next operation trips.
func TestProcessFaultsCorruptLastRecv(t *testing.T) {
	a, b := Pipe()
	defer b.Close()
	mustSend(t, b, []byte{9, 9, 9, 9})
	mustSend(t, b, []byte{0, 0, 0})
	f := NewFaults(FaultPlan{FailAfter: 2, Corrupt: true}, nil).Wrap(a)
	if p := mustRecv(t, f); !bytes.Equal(p, []byte{9, 9, 9, 9}) {
		t.Errorf("first recv %v was corrupted, want it intact", p)
	}
	if p := mustRecv(t, f); !bytes.Equal(p, []byte{0, 0xFF, 0}) {
		t.Errorf("final permitted recv = %v, want [0 255 0]", p)
	}
	if _, err := f.Recv(); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-corruption op: got %v, want ErrInjected", err)
	}
}

// TestFaultsStats is the regression test for injected-fault accounting:
// failures must surface in SendErrs/RecvErrs without touching the
// byte/message/round counters the telemetry spans attribute.
func TestFaultsStats(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	f := NewFaults(FaultPlan{FailAfter: 3}, nil).Wrap(a)
	mustSend(t, f, []byte{1, 2, 3})
	mustSend(t, b, []byte{9})
	mustRecv(t, f)
	mustSend(t, f, []byte{4})
	clean := f.Stats()

	if err := f.Send([]byte{5}); !errors.Is(err, ErrInjected) {
		t.Fatalf("budget exhausted send = %v", err)
	}
	if _, err := f.Recv(); !errors.Is(err, ErrInjected) {
		t.Fatalf("budget exhausted recv = %v", err)
	}
	got := f.Stats()
	if got.SendErrs != clean.SendErrs+1 || got.RecvErrs != clean.RecvErrs+1 {
		t.Errorf("injected errs not counted: %+v (before: %+v)", got, clean)
	}
	// Byte attribution is unchanged by the injected failures.
	got.SendErrs, got.RecvErrs = clean.SendErrs, clean.RecvErrs
	if got != clean {
		t.Errorf("injected faults skewed byte attribution: %+v vs %+v", got, clean)
	}
	// The delta across the faulty window shows only the failures.
	d := f.Stats().Sub(clean)
	if d.TotalBytes() != 0 || d.SendErrs != 1 || d.RecvErrs != 1 {
		t.Errorf("faulty-window delta = %+v", d)
	}
	// ResetStats clears the injected counters along with the inner ones.
	f.ResetStats()
	if s := f.Stats(); s != (Stats{}) {
		t.Errorf("stats after reset = %+v", s)
	}
}

// TestFaultsSharedBudget checks the budget is shared across every wrapped
// connection and that tripping closes them all at once.
func TestFaultsSharedBudget(t *testing.T) {
	var died atomic.Bool
	p := NewFaults(FaultPlan{FailAfter: 3}, func() { died.Store(true) })
	a1, b1 := Pipe()
	a2, b2 := Pipe()
	defer b1.Close()
	defer b2.Close()
	w1, w2 := p.Wrap(a1), p.Wrap(a2)

	// The pipes buffer, so send-then-receive proceeds synchronously.
	mustSend(t, w1, []byte("x")) // op 1, conn 1
	mustSend(t, w2, []byte("y")) // op 2, conn 2
	mustSend(t, w1, []byte("z")) // op 3: budget exhausted
	for _, peer := range []Conn{b1, b2, b1} {
		mustRecv(t, peer)
	}
	if p.Dead() {
		t.Fatal("injector dead before the budget tripped")
	}
	// Op 4 on either connection trips the injector.
	if err := w2.Send([]byte("boom")); !errors.Is(err, ErrInjected) {
		t.Fatalf("op 4: got %v, want ErrInjected", err)
	}
	if !p.Dead() || !died.Load() {
		t.Fatal("trip did not mark the injector dead / fire onDeath")
	}
	if p.Ops() != 3 {
		t.Fatalf("Ops() = %d, want 3", p.Ops())
	}
	// Both connections are closed, not just the tripping one.
	if err := w1.Send([]byte("after")); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-death send on sibling conn: got %v, want ErrInjected", err)
	}
	for _, peer := range []Conn{b1, b2} {
		wantClosed(t, peer)
	}
}

// wantClosed fails unless c's next Recv reports ErrClosed: the trip or
// Kill closed the connection under the peer.
func wantClosed(t *testing.T, c Conn) {
	t.Helper()
	got := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		got <- err
	}()
	select {
	case err := <-got:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("peer Recv: got %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("peer Recv still blocked: the connection was never closed")
	}
}

// handedOut reports the operation indices f has handed out, tripping ones
// included (Ops stops at FailAfter).
func handedOut(f *Faults) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// waitHandedOut waits until f has handed out n operation indices.
func waitHandedOut(t *testing.T, f *Faults, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for handedOut(f) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d operations started", handedOut(f), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFaultsFreezeUntilKill checks the freeze-then-die plan over two
// connections: while the tripping operation stalls, an operation on the
// other connection answers nothing — no data, no reset — until Kill; then
// both return ErrInjected and both peers see their connection closed.
func TestFaultsFreezeUntilKill(t *testing.T) {
	const k = 2
	p := NewFaults(FaultPlan{FailAfter: k, StallAt: k, Stall: time.Hour}, nil)
	a1, b1 := Pipe()
	a2, b2 := Pipe()
	defer b1.Close()
	defer b2.Close()
	w1, w2 := p.Wrap(a1), p.Wrap(a2)
	mustSend(t, w1, []byte("x"))
	mustSend(t, w2, []byte("y"))

	stalled, frozen := make(chan error, 1), make(chan error, 1)
	go func() { stalled <- w1.Send([]byte("stalled")) }()
	waitHandedOut(t, p, k+1)
	go func() { frozen <- w2.Send([]byte("frozen")) }()
	waitHandedOut(t, p, k+2)
	select {
	case err := <-frozen:
		t.Fatalf("op on the second connection returned %v during the stall", err)
	case err := <-stalled:
		t.Fatalf("stalled op returned %v before Kill", err)
	case <-time.After(50 * time.Millisecond):
	}
	if p.Dead() {
		t.Fatal("injector dead during the stall")
	}
	p.Kill()
	for name, ch := range map[string]chan error{"stalled": stalled, "frozen": frozen} {
		select {
		case err := <-ch:
			if !errors.Is(err, ErrInjected) {
				t.Errorf("%s op after Kill: got %v, want ErrInjected", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Kill did not release the %s op", name)
		}
	}
	for _, peer := range []Conn{b1, b2} {
		mustRecv(t, peer) // the frame sent before the stall
		wantClosed(t, peer)
	}
}

// TestFaultsKillCutsStall checks Kill cuts a single connection's
// slow-loris stall short, even on a plan that never trips.
func TestFaultsKillCutsStall(t *testing.T) {
	p := NewFaults(FaultPlan{FailAfter: -1, Stall: time.Hour, StallAt: 1}, nil)
	a, b := Pipe()
	defer b.Close()
	w := p.Wrap(a)
	mustSend(t, w, []byte("before"))
	done := make(chan error, 1)
	go func() { done <- w.Send([]byte("stalled")) }()
	waitHandedOut(t, p, 2)
	select {
	case err := <-done:
		t.Fatalf("stalled op returned early with %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	p.Kill()
	select {
	case err := <-done:
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("killed op: got %v, want ErrInjected", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Kill did not cut the stall short")
	}
	mustRecv(t, b)
	wantClosed(t, b)
}

// TestFaultsWrapAfterDeath checks a connection wrapped after the injector
// died is closed immediately.
func TestFaultsWrapAfterDeath(t *testing.T) {
	p := NewFaults(FaultPlan{FailAfter: -1}, nil)
	p.Kill()
	a, b := Pipe()
	defer b.Close()
	w := p.Wrap(a)
	if err := w.Send([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("send on post-death conn: got %v, want ErrInjected", err)
	}
	wantClosed(t, b)
}
