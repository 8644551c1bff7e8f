package transport

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
)

// mustSend / mustRecv fail the test on a transport error, keeping the
// sendcheck invariant (no dropped transport errors) in the tests too.
func mustSend(t testing.TB, c Conn, p []byte) {
	t.Helper()
	if err := c.Send(p); err != nil {
		t.Fatalf("send: %v", err)
	}
}

func mustRecv(t testing.TB, c Conn) []byte {
	t.Helper()
	p, err := c.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	return p
}

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	msg := []byte("hello 2pc")
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
}

func TestPipeCopiesPayload(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	msg := []byte{1, 2, 3}
	mustSend(t, a, msg)
	msg[0] = 99 // mutate after send
	got := mustRecv(t, b)
	if got[0] != 1 {
		t.Error("Send did not copy the payload")
	}
}

func TestPipeStatsAndRounds(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	mustSend(t, a, make([]byte, 10))
	mustSend(t, a, make([]byte, 20))
	mustRecv(t, b)
	mustRecv(t, b)
	mustSend(t, b, make([]byte, 5))
	mustRecv(t, a)
	sa, sb := a.Stats(), b.Stats()
	if sa.BytesSent != 30 || sa.MsgsSent != 2 || sa.BytesRecv != 5 {
		t.Errorf("a stats %+v", sa)
	}
	if sa.Rounds != 1 { // a: send,send,recv → one direction change
		t.Errorf("a rounds = %d", sa.Rounds)
	}
	if sb.Rounds != 0 { // b only receives then sends
		t.Errorf("b rounds = %d", sb.Rounds)
	}
	if sa.MiB() <= 0 {
		t.Error("MiB should be positive")
	}
	a.ResetStats()
	if a.Stats().TotalBytes() != 0 {
		t.Error("ResetStats did not zero")
	}
}

func TestPipeCloseUnblocks(t *testing.T) {
	a, b := Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Recv after peer close = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on peer close")
	}
	if err := a.Send([]byte{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("Send on closed conn = %v", err)
	}
}

func TestPackUnpackWidths(t *testing.T) {
	g := prg.NewSeeded(1)
	for _, bits := range []uint{8, 12, 16, 24, 32, 48} {
		r := ring.New(bits)
		xs := g.Elems(100, r)
		p := PackElems(r, xs)
		if len(p) != 100*r.Bytes() {
			t.Errorf("ℓ=%d: packed %d bytes, want %d", bits, len(p), 100*r.Bytes())
		}
		got, err := UnpackElems(r, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			if got[i] != xs[i] {
				t.Fatalf("ℓ=%d: element %d mismatch", bits, i)
			}
		}
	}
}

// TestPackElemsWidths checks the codec at every ring width against the
// byte-at-a-time definition: ⌈ℓ/8⌉ little-endian bytes of x mod 2^ℓ per
// element, and the unpacked value masked to the ring. The inputs carry
// bits above the mask on both sides, so a fixed-width path that drops the
// mask fails.
func TestPackElemsWidths(t *testing.T) {
	g := prg.NewSeeded(2)
	for bits := uint(1); bits <= ring.MaxBits; bits++ {
		r := ring.New(bits)
		w := r.Bytes()
		xs := make([]uint64, 37)
		for i := range xs {
			xs[i] = g.Uint64()
		}
		want := make([]byte, len(xs)*w)
		for i, x := range xs {
			for b := 0; b < w; b++ {
				want[i*w+b] = byte((x & r.Mask) >> (8 * b))
			}
		}
		got := make([]byte, len(want))
		PackElemsInto(got, r, xs)
		if !bytes.Equal(got, want) {
			t.Fatalf("ℓ=%d: packed bytes differ from the byte loop", bits)
		}
		wire := make([]byte, len(xs)*w)
		g.Read(wire) // bits above the mask in every element's top byte
		vals := make([]uint64, len(xs))
		if err := UnpackElemsInto(vals, r, wire); err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			var x uint64
			for b := 0; b < w; b++ {
				x |= uint64(wire[i*w+b]) << (8 * b)
			}
			if vals[i] != x&r.Mask {
				t.Fatalf("ℓ=%d: element %d unpacks to %#x, want %#x", bits, i, vals[i], x&r.Mask)
			}
		}
	}
}

func TestUnpackRejectsBadLength(t *testing.T) {
	r := ring.New(16)
	if _, err := UnpackElems(r, make([]byte, 5)); err == nil {
		t.Error("expected length error")
	}
}

func TestPackQuick(t *testing.T) {
	r := ring.New(14)
	f := func(raw []uint64) bool {
		xs := make([]uint64, len(raw))
		for i := range raw {
			xs[i] = r.Reduce(raw[i])
		}
		got, err := UnpackElems(r, PackElems(r, xs))
		if err != nil || len(got) != len(xs) {
			return false
		}
		for i := range xs {
			if got[i] != xs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExchangeOpen(t *testing.T) {
	r := ring.New(16)
	g := prg.NewSeeded(2)
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	x := g.Elems(32, r)
	y := g.Elems(32, r)
	var got0, got1 []uint64
	var err0, err1 error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); got0, err0 = ExchangeOpen(a, r, 0, x) }()
	go func() { defer wg.Done(); got1, err1 = ExchangeOpen(b, r, 1, y) }()
	wg.Wait()
	if err0 != nil || err1 != nil {
		t.Fatal(err0, err1)
	}
	for i := range x {
		want := r.Add(x[i], y[i])
		if got0[i] != want || got1[i] != want {
			t.Fatalf("exchange open mismatch at %d", i)
		}
	}
}

func TestRecvElemsLengthCheck(t *testing.T) {
	r := ring.New(8)
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	SendElems(a, r, []uint64{1, 2, 3})
	if _, err := RecvElems(b, r, 5); err == nil {
		t.Error("expected element-count error")
	}
}

func TestTCPConn(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	var server Conn
	done := make(chan struct{})
	go func() {
		c, err := l.Accept()
		if err == nil {
			server = NewNetConn(c)
		}
		close(done)
	}()
	client, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	l.Close()
	defer client.Close()
	defer server.Close()

	r := ring.New(24)
	g := prg.NewSeeded(3)
	xs := g.Elems(500, r)
	if err := SendElems(client, r, xs); err != nil {
		t.Fatal(err)
	}
	got, err := RecvElems(server, r, 500)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if got[i] != xs[i] {
			t.Fatal("TCP round trip mismatch")
		}
	}
	// Empty frame.
	if err := server.Send(nil); err != nil {
		t.Fatal(err)
	}
	p, err := client.Recv()
	if err != nil || len(p) != 0 {
		t.Fatalf("empty frame: %v %v", p, err)
	}
	if client.Stats().BytesSent != uint64(500*r.Bytes()) {
		t.Errorf("client bytes sent = %d", client.Stats().BytesSent)
	}
}

func TestNetworkModel(t *testing.T) {
	m := GigabitLAN()
	// 1 MiB at 1 Gbps ≈ 8.39 ms, plus 2 rounds × 200 µs.
	d := m.Time(1<<20, 2)
	if d < 8*time.Millisecond || d > 10*time.Millisecond {
		t.Errorf("1 MiB + 2 rounds = %v", d)
	}
	if (NetworkModel{}).Time(1<<20, 5) != 0 {
		t.Error("zero model should cost nothing")
	}
	s := Stats{BytesSent: 1 << 20, Rounds: 2}
	if m.TimeForStats(s) != d {
		t.Error("TimeForStats mismatch")
	}
}

// tcpPair returns the two ends of a loopback TCP connection, closed when
// the test ends.
func tcpPair(t testing.TB) (net.Conn, net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := l.Accept()
		ch <- accepted{c, err}
	}()
	a, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	acc := <-ch
	if acc.err != nil {
		a.Close()
		t.Fatal(acc.err)
	}
	t.Cleanup(func() { a.Close(); acc.c.Close() })
	return a, acc.c
}

// BenchmarkNetConnPingPong times a 64-byte round trip between two framed
// conns over loopback TCP: a Send and a Recv on each side.
func BenchmarkNetConnPingPong(b *testing.B) {
	ca, cb := tcpPair(b)
	a, echo := NewNetConn(ca), NewNetConn(cb)
	go func() {
		for {
			p, err := echo.Recv()
			if err != nil {
				return
			}
			if err := echo.Send(p); err != nil {
				return
			}
		}
	}()
	msg := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustSend(b, a, msg)
		mustRecv(b, a)
	}
}

// BenchmarkMuxPingPong is BenchmarkNetConnPingPong through a mux: a
// 64-byte round trip on the main streams of two muxes over loopback TCP,
// each frame carrying its stream byte in the header.
func BenchmarkMuxPingPong(b *testing.B) {
	ca, cb := tcpPair(b)
	a, _ := NewMux(NewNetConn(ca))
	echo, _ := NewMux(NewNetConn(cb))
	defer a.Close()
	go func() {
		defer echo.Close()
		for {
			p, err := echo.Recv()
			if err != nil {
				return
			}
			if err := echo.Send(p); err != nil {
				return
			}
		}
	}()
	msg := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustSend(b, a, msg)
		mustRecv(b, a)
	}
}

func BenchmarkPipeSendRecv(b *testing.B) {
	x, y := Pipe()
	defer x.Close()
	defer y.Close()
	payload := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		mustSend(b, x, payload)
		mustRecv(b, y)
	}
}

func BenchmarkPackElems16(b *testing.B) {
	r := ring.New(16)
	g := prg.NewSeeded(1)
	xs := g.Elems(4096, r)
	b.SetBytes(int64(len(xs) * r.Bytes()))
	for i := 0; i < b.N; i++ {
		PackElems(r, xs)
	}
}
