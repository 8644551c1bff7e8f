package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"
)

func muxPair() (aMain, aPre, bMain, bPre Conn) {
	a, b := Pipe()
	aMain, aPre = NewMux(a)
	bMain, bPre = NewMux(b)
	return
}

func TestMuxRoutesStreams(t *testing.T) {
	aMain, aPre, bMain, bPre := muxPair()
	defer aMain.Close()
	defer bMain.Close()
	// Interleave sends across both streams, then receive out of arrival
	// order: the baton reader must park the other stream's frames.
	mustSend(t, aMain, []byte("main-0"))
	mustSend(t, aPre, []byte("pre-0"))
	mustSend(t, aMain, []byte("main-1"))
	if got := mustRecv(t, bPre); string(got) != "pre-0" {
		t.Fatalf("preproc stream got %q", got)
	}
	if got := mustRecv(t, bMain); string(got) != "main-0" {
		t.Fatalf("main stream got %q", got)
	}
	if got := mustRecv(t, bMain); string(got) != "main-1" {
		t.Fatalf("main stream got %q", got)
	}
}

// TestMuxConcurrentStreams drives both substreams at once, over a pipe
// and over TCP, where concurrent frames share the netConn's header
// storage under its write lock.
func TestMuxConcurrentStreams(t *testing.T) {
	pairs := map[string]func(t *testing.T) (Conn, Conn){
		"pipe": func(*testing.T) (Conn, Conn) { return Pipe() },
		"tcp": func(t *testing.T) (Conn, Conn) {
			a, b := tcpPair(t)
			return NewNetConn(a), NewNetConn(b)
		},
	}
	for name, pair := range pairs {
		t.Run(name, func(t *testing.T) {
			a, b := pair(t)
			aMain, aPre := NewMux(a)
			bMain, bPre := NewMux(b)
			testMuxConcurrentStreams(t, aMain, aPre, bMain, bPre)
		})
	}
}

func testMuxConcurrentStreams(t *testing.T, aMain, aPre, bMain, bPre Conn) {
	defer aMain.Close()
	defer bMain.Close()
	const n = 200
	var wg sync.WaitGroup
	echo := func(c Conn) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			p, err := c.Recv()
			if err != nil {
				t.Errorf("echo recv: %v", err)
				return
			}
			if err := c.Send(p); err != nil {
				t.Errorf("echo send: %v", err)
				return
			}
		}
	}
	drive := func(c Conn, tag byte) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			msg := []byte{tag, byte(i)}
			if err := c.Send(msg); err != nil {
				t.Errorf("drive send: %v", err)
				return
			}
			p, err := c.Recv()
			if err != nil {
				t.Errorf("drive recv: %v", err)
				return
			}
			if p[0] != tag || p[1] != byte(i) {
				t.Errorf("stream %d echo %v, want %v", tag, p, msg)
				return
			}
		}
	}
	wg.Add(4)
	go echo(bMain)
	go echo(bPre)
	go drive(aMain, 0)
	go drive(aPre, 1)
	wg.Wait()
}

// TestMuxStatsPerStream: each substream accounts exactly its own payload
// bytes, prefix excluded — the property that keeps the online stream's
// Stats byte-identical whether or not a fill runs beside it.
func TestMuxStatsPerStream(t *testing.T) {
	aMain, aPre, bMain, bPre := muxPair()
	defer aMain.Close()
	defer bMain.Close()
	mustSend(t, aMain, make([]byte, 10))
	mustSend(t, aPre, make([]byte, 100))
	if got := mustRecv(t, bMain); len(got) != 10 {
		t.Fatalf("main recv %d bytes", len(got))
	}
	if got := mustRecv(t, bPre); len(got) != 100 {
		t.Fatalf("preproc recv %d bytes", len(got))
	}
	for _, tc := range []struct {
		name       string
		c          Conn
		sent, recv uint64
	}{
		{"a.main", aMain, 10, 0}, {"a.pre", aPre, 100, 0},
		{"b.main", bMain, 0, 10}, {"b.pre", bPre, 0, 100},
	} {
		s := tc.c.Stats()
		if s.BytesSent != tc.sent || s.BytesRecv != tc.recv {
			t.Errorf("%s stats sent %d recv %d, want %d/%d", tc.name, s.BytesSent, s.BytesRecv, tc.sent, tc.recv)
		}
	}
}

// TestMuxPreprocCloseKeepsMain: closing the preprocessing substream
// unblocks the peer's preproc reader with ErrClosed while the main stream
// keeps flowing both ways.
func TestMuxPreprocCloseKeepsMain(t *testing.T) {
	aMain, aPre, bMain, bPre := muxPair()
	defer aMain.Close()
	defer bMain.Close()
	done := make(chan error, 1)
	go func() {
		_, err := bPre.Recv()
		done <- err
	}()
	if err := aPre.Close(); err != nil {
		t.Fatalf("preproc close: %v", err)
	}
	// The peer's parked preproc reader needs a frame flow to observe the
	// close control; the main traffic below provides it.
	mustSend(t, aMain, []byte("still-alive"))
	if got := mustRecv(t, bMain); string(got) != "still-alive" {
		t.Fatalf("main after preproc close got %q", got)
	}
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("peer preproc recv returned %v, want ErrClosed", err)
	}
	// Local half-close: both ends of the preproc stream now refuse I/O...
	if err := aPre.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("send on closed preproc stream returned %v, want ErrClosed", err)
	}
	if err := bPre.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("send on remotely closed preproc stream returned %v, want ErrClosed", err)
	}
	// ...and a second Close stays a clean no-op.
	if err := aPre.Close(); err != nil {
		t.Errorf("second preproc close: %v", err)
	}
	// Main stream still fine in the other direction too.
	mustSend(t, bMain, []byte("back"))
	if got := mustRecv(t, aMain); string(got) != "back" {
		t.Fatalf("main reverse got %q", got)
	}
}

// TestMuxMainCloseTearsDown: closing the main substream poisons the whole
// mux, both locally and (via the inner close) for the peer.
func TestMuxMainCloseTearsDown(t *testing.T) {
	aMain, aPre, bMain, bPre := muxPair()
	if err := aMain.Close(); err != nil {
		t.Fatalf("main close: %v", err)
	}
	if _, err := aPre.Recv(); !errors.Is(err, ErrClosed) {
		t.Errorf("local preproc recv after main close returned %v, want ErrClosed", err)
	}
	if _, err := bMain.Recv(); err == nil {
		t.Error("peer main recv survived the teardown")
	}
	if _, err := bPre.Recv(); err == nil {
		t.Error("peer preproc recv survived the teardown")
	}
	bMain.Close()
}

// TestMuxWireViolations: malformed prefixes are permanent MuxErrors, and
// they poison every substream, not just the receiving one.
func TestMuxWireViolations(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"empty frame", []byte{}},
		{"reserved bits", []byte{0x80, 1, 2}},
		{"unknown stream", []byte{0x0F, 1, 2}},
		{"close with payload", []byte{muxClose | StreamPreproc, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := Pipe()
			defer a.Close()
			bMain, bPre := NewMux(b)
			mustSend(t, a, tc.frame)
			_, err := bMain.Recv()
			var me *MuxError
			if !errors.As(err, &me) {
				t.Fatalf("recv returned %v, want a MuxError", err)
			}
			if IsTransient(err) {
				t.Error("mux violation classified transient; a misframing peer is permanent")
			}
			if _, err := bPre.Recv(); !errors.As(err, &me) {
				t.Errorf("other substream recv returned %v, want the poisoning MuxError", err)
			}
			bMain.Close()
		})
	}
}

// TestMuxQueueOverflow: a peer flooding one stream while the receiver
// waits on the other is a flow violation, not a memory obligation.
func TestMuxQueueOverflow(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	bMain, bPre := NewMux(b)
	defer bMain.Close()
	done := make(chan error, 1)
	go func() {
		_, err := bMain.Recv() // holds the baton, routing preproc floods
		done <- err
	}()
	for i := 0; i <= muxQueueCap; i++ {
		frame := []byte{StreamPreproc, byte(i)}
		if err := a.Send(frame); err != nil {
			t.Fatalf("flood send %d: %v", i, err)
		}
	}
	err := <-done
	var me *MuxError
	if !errors.As(err, &me) {
		t.Fatalf("flooded mux returned %v, want a queue-overflow MuxError", err)
	}
	// Parked frames stay drainable on the poisoned mux; everything past
	// them — and every send — reports the poisoning error.
	for i := 0; i < muxQueueCap; i++ {
		if _, err := bPre.Recv(); err != nil {
			t.Fatalf("draining parked frame %d: %v", i, err)
		}
	}
	if _, err := bPre.Recv(); !errors.As(err, &me) {
		t.Errorf("preproc recv past the parked frames returned %v, want the MuxError", err)
	}
	if err := bPre.Send([]byte("x")); !errors.As(err, &me) {
		t.Errorf("send on the poisoned mux returned %v, want the MuxError", err)
	}
}

// TestMuxFrameTooLarge: the substream enforces the inner frame limit
// minus its one prefix byte, before touching the wire.
func TestMuxFrameTooLarge(t *testing.T) {
	aMain, _, bMain, _ := muxPair()
	defer aMain.Close()
	defer bMain.Close()
	err := aMain.Send(make([]byte, MaxFrame))
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("oversized send returned %v, want FrameError", err)
	}
	if aMain.Stats().BytesSent != 0 {
		t.Error("rejected frame counted bytes")
	}
}

// TestMuxUnwrap: deadline/budget helpers must reach the transport below.
func TestMuxUnwrap(t *testing.T) {
	a, b := Pipe()
	defer b.Close()
	aMain, aPre := NewMux(a)
	defer aMain.Close()
	type unwrapper interface{ Unwrap() Conn }
	for _, c := range []Conn{aMain, aPre} {
		u, ok := c.(unwrapper)
		if !ok {
			t.Fatal("mux substream does not expose Unwrap")
		}
		if u.Unwrap() != a {
			t.Fatal("Unwrap does not reach the inner conn")
		}
	}
}

// TestMuxPreprocCloseNeverOvertakesSend races preproc senders against the
// preproc Close. A data frame whose Send passed the closed check must
// reach the wire before the close control: the peer reads data on a
// remotely closed stream as a wire violation and poisons the whole mux,
// main stream included.
func TestMuxPreprocCloseNeverOvertakesSend(t *testing.T) {
	for i := 0; i < 300; i++ {
		aMain, aPre, bMain, bPre := muxPair()
		first, drained := make(chan struct{}), make(chan error, 1)
		go func() {
			for n := 0; ; n++ {
				if _, err := bPre.Recv(); err != nil {
					drained <- err
					return
				}
				if n == 0 {
					close(first)
				}
			}
		}()
		var wg sync.WaitGroup
		for s := 0; s < 3; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for aPre.Send([]byte("kit")) == nil {
				}
			}()
		}
		<-first
		if err := aPre.Close(); err != nil {
			t.Fatalf("preproc close: %v", err)
		}
		wg.Wait()
		mustSend(t, aMain, []byte("still-alive"))
		if err := <-drained; !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: peer preproc recv returned %v, want ErrClosed", i, err)
		}
		if got, err := bMain.Recv(); err != nil || string(got) != "still-alive" {
			t.Fatalf("round %d: main after preproc close got %q, %v", i, got, err)
		}
		aMain.Close()
		bMain.Close()
	}
}

type muxInner struct {
	name  string
	fast  bool // the mux writes through it without a copy
	inner func(Conn) Conn
}

// muxInners are the inner conns a mux writes through, over one end of a
// TCP connection: a bare netConn and a context binding of one take the
// copy-free path (prefixSender); a Faults injector that never trips takes
// the copy path.
func muxInners(t *testing.T) []muxInner {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return []muxInner{
		{"netConn", true, func(c Conn) Conn { return c }},
		{"ctxConn", true, func(c Conn) Conn { return WithContext(ctx, c) }},
		{"Faults", false, func(c Conn) Conn { return NewFaults(FaultPlan{FailAfter: -1}, nil).Wrap(c) }},
	}
}

// TestMuxFramingOnTheSocket: whichever inner conn the mux writes through,
// the socket carries the same bytes, each frame a little-endian length
// then the stream byte then the payload; the close control is a
// one-byte frame. Frames on both sides of ioChunk take the vectored and
// the chunked write.
func TestMuxFramingOnTheSocket(t *testing.T) {
	big := bytes.Repeat([]byte{0x5A}, ioChunk+7)
	sends := []struct {
		stream int
		p      []byte
	}{
		{StreamMain, []byte("main-0")},
		{StreamPreproc, []byte("pre-0")},
		{StreamMain, nil},
		{StreamMain, big[:ioChunk-1]}, // with its prefix, exactly ioChunk
		{StreamPreproc, big},
	}
	var want []byte
	for _, s := range sends {
		want = binary.LittleEndian.AppendUint32(want, uint32(1+len(s.p)))
		want = append(want, byte(s.stream))
		want = append(want, s.p...)
	}
	want = append(want, 1, 0, 0, 0, muxClose|StreamPreproc)
	for _, tc := range muxInners(t) {
		ca, cb := tcpPair(t)
		inner := tc.inner(NewNetConn(ca))
		if _, fast := inner.(prefixSender); fast != tc.fast {
			t.Fatalf("%s: prefixSender %v, want %v", tc.name, fast, tc.fast)
		}
		got := make(chan []byte, 1)
		go func() {
			p, _ := io.ReadAll(cb)
			got <- p
		}()
		main, pre := NewMux(inner)
		streams := [muxStreams]Conn{main, pre}
		for _, s := range sends {
			mustSend(t, streams[s.stream], s.p)
		}
		if err := pre.Close(); err != nil {
			t.Fatal(err)
		}
		main.Close()
		if p := <-got; !bytes.Equal(p, want) {
			t.Errorf("%s: %d bytes on the socket differ from the %d framed ones", tc.name, len(p), len(want))
		}
	}
}

// TestMuxSendPayloadReuse: Send keeps no reference to its payload, so a
// sender that overwrites the payload as soon as Send returns (as the IKNP
// extension does with its recycled u-frame) leaves the peer's frame
// intact, on every inner conn and on both sides of ioChunk.
func TestMuxSendPayloadReuse(t *testing.T) {
	for _, tc := range muxInners(t) {
		ca, cb := tcpPair(t)
		aMain, _ := NewMux(tc.inner(NewNetConn(ca)))
		bMain, _ := NewMux(NewNetConn(cb))
		sizes := []int{64, 64 << 10, ioChunk + 100}
		done := make(chan error, 1)
		go func() {
			for i, n := range sizes {
				p, err := bMain.Recv()
				if err == nil && !bytes.Equal(p, bytes.Repeat([]byte{byte(i + 1)}, n)) {
					err = errors.New("frame corrupted")
				}
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		buf := make([]byte, ioChunk+100)
		for i, n := range sizes {
			p := buf[:n]
			for j := range p {
				p[j] = byte(i + 1)
			}
			mustSend(t, aMain, p)
			for j := range p {
				p[j] = 0xEE
			}
		}
		if err := <-done; err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		aMain.Close()
		bMain.Close()
	}
}

// TestMuxSendAllocs: a mux Send over a TCP netConn writes the payload
// where it lies, so sending 64 KiB allocates well under 1 KiB; the copy
// it replaced cost the whole frame. The peer drains the socket raw into
// one buffer, allocated before the count starts, so the count is the
// sender's alone.
func TestMuxSendAllocs(t *testing.T) {
	ca, cb := tcpPair(t)
	main, _ := NewMux(NewNetConn(ca))
	defer main.Close()
	buf := make([]byte, 64<<10)
	go func() {
		for {
			if _, err := cb.Read(buf); err != nil {
				return
			}
		}
	}()
	payload := make([]byte, 64<<10)
	mustSend(t, main, payload)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		mustSend(t, main, payload)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1024 {
		t.Errorf("mux Send of 64 KiB allocates %d B, want under 1 KiB", per)
	}
}

// TestMuxRecvIntoPaths: whichever inner conn the mux reads through, the
// frames RecvInto delivers and the Stats of the inner conn and of both
// streams are the same; over a netConn and a context binding of one a
// frame that fits lands in the lent buffer, and a frame larger than the
// buffer or than ioChunk does not. The frames
// cover both sides of the buffer's capacity and of ioChunk, an empty
// payload and the close control.
func TestMuxRecvIntoPaths(t *testing.T) {
	big := bytes.Repeat([]byte{0x5A}, ioChunk+7)
	sends := []struct {
		stream int
		p      []byte
	}{
		{StreamMain, []byte("main-0")},
		{StreamPreproc, []byte("pre-0")},
		{StreamMain, nil},
		{StreamMain, big[:64<<10]},
		{StreamMain, big[:64<<10+1]},
		{StreamPreproc, big[:ioChunk-1]},
		{StreamMain, big},
		{StreamPreproc, []byte("pre-1")},
	}
	type result struct {
		frames [][]byte
		stats  [3]Stats // inner, main, preproc
	}
	var ref *result
	for _, tc := range muxInners(t) {
		ca, cb := tcpPair(t)
		inner := tc.inner(NewNetConn(cb))
		if _, fast := inner.(frameRecver); fast != tc.fast {
			t.Fatalf("%s: frameRecver %v, want %v", tc.name, fast, tc.fast)
		}
		aMain, aPre := NewMux(NewNetConn(ca))
		bMain, bPre := NewMux(inner)
		sent := make(chan error, 1)
		go func() {
			streams := [muxStreams]Conn{aMain, aPre}
			for _, s := range sends {
				if err := streams[s.stream].Send(s.p); err != nil {
					sent <- err
					return
				}
			}
			sent <- aPre.Close()
		}()
		var got result
		dst := make([]byte, 64<<10)
		for _, s := range sends {
			p, err := RecvInto([muxStreams]Conn{bMain, bPre}[s.stream], dst)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			// Frames are received in the order they were sent, so each
			// read from the inner conn is the receiving stream's own.
			if want := tc.fast && len(s.p) <= cap(dst); len(s.p) > 0 && aliases(p, dst) != want {
				t.Fatalf("%s: %d-byte frame in the %d-byte lent buffer: %v, want %v",
					tc.name, len(s.p), cap(dst), aliases(p, dst), want)
			}
			got.frames = append(got.frames, bytes.Clone(p))
		}
		if err := <-sent; err != nil {
			t.Fatalf("%s: send: %v", tc.name, err)
		}
		if _, err := bPre.Recv(); !errors.Is(err, ErrClosed) {
			t.Fatalf("%s: preproc after the close control: %v, want ErrClosed", tc.name, err)
		}
		got.stats = [3]Stats{inner.Stats(), bMain.Stats(), bPre.Stats()}
		aMain.Close()
		bMain.Close()
		for i, s := range sends {
			if !bytes.Equal(got.frames[i], s.p) {
				t.Errorf("%s: frame %d differs from the one sent", tc.name, i)
			}
		}
		if ref == nil {
			ref = &got
		} else if got.stats != ref.stats {
			t.Errorf("%s: stats %v, want %v", tc.name, got.stats, ref.stats)
		}
	}
}

// TestMuxRecvIntoCopiesOtherStream: a frame for the other stream, read
// by a stream that lent its caller's buffer, is queued as a copy, so it
// survives the caller overwriting that buffer once its own frame is in.
func TestMuxRecvIntoCopiesOtherStream(t *testing.T) {
	for _, tc := range muxInners(t) {
		ca, cb := tcpPair(t)
		aMain, aPre := NewMux(NewNetConn(ca))
		bMain, bPre := NewMux(tc.inner(NewNetConn(cb)))
		pre, main := bytes.Repeat([]byte{0xA1}, 4096), bytes.Repeat([]byte{0xB2}, 4096)
		mustSend(t, aPre, pre)
		mustSend(t, aMain, main)
		dst := make([]byte, 8192)
		p, err := RecvInto(bMain, dst)
		if err != nil || !bytes.Equal(p, main) {
			t.Fatalf("%s: main frame %d bytes, %v", tc.name, len(p), err)
		}
		for i := range dst {
			dst[i] = 0xEE
		}
		if got := mustRecv(t, bPre); !bytes.Equal(got, pre) {
			t.Errorf("%s: the preproc frame read into the lent buffer did not survive its reuse", tc.name)
		}
		aMain.Close()
		bMain.Close()
	}
}

// TestMuxRecvIntoAllocs: a mux RecvInto over a TCP netConn reads the
// frame into the lent buffer, so receiving 64 KiB allocates well under
// 1 KiB; Recv allocates the whole frame. The peer writes pre-framed
// bytes straight to the socket, so the count is the receiver's alone.
func TestMuxRecvIntoAllocs(t *testing.T) {
	ca, cb := tcpPair(t)
	main, _ := NewMux(NewNetConn(ca))
	defer main.Close()
	const size, runs = 64 << 10, 50
	frame := binary.LittleEndian.AppendUint32(nil, 1+size)
	frame = append(frame, StreamMain)
	frame = append(frame, make([]byte, size)...)
	go func() {
		for range runs + 1 {
			if _, err := cb.Write(frame); err != nil {
				return
			}
		}
	}()
	dst := make([]byte, size)
	if _, err := RecvInto(main, dst); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if p, err := RecvInto(main, dst); err != nil || len(p) != size {
			t.Fatalf("RecvInto: %d bytes, %v", len(p), err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1024 {
		t.Errorf("mux RecvInto of 64 KiB allocates %d B, want under 1 KiB", per)
	}
}
