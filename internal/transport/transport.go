// Package transport provides the two-party communication substrate: framed
// message channels with per-direction byte, message and round accounting.
// Every protocol byte in the system flows through a Conn, so the
// communication numbers in the experiment tables are measured, not
// estimated. Ring elements are serialised at ⌈ℓ/8⌉ bytes, which is how
// adaptive quantization turns smaller rings into less traffic.
//
// Two implementations are provided: an in-memory duplex pipe (both parties
// in one process, used by tests, benchmarks and the experiment harness) and
// a TCP transport (cmd/party) that emulates the paper's two-board Ethernet
// setup.
package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// ErrClosed is returned by operations on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// MaxFrame is the largest accepted frame payload (64 MiB), a sanity bound
// against corrupted length prefixes.
const MaxFrame = 64 << 20

// Stats accumulates traffic counters for one endpoint. A "round" is counted
// at every send→receive direction change: it approximates the number of
// protocol round-trips, the quantity that pays the network latency.
type Stats struct {
	BytesSent uint64
	BytesRecv uint64
	MsgsSent  uint64
	MsgsRecv  uint64
	Rounds    uint64
	// SendErrs and RecvErrs count failed operations (transport errors and
	// injected faults). Failed operations move no accounted payload bytes,
	// so fault injection never skews byte attribution, but the failures
	// stay visible to telemetry spans and the fault-injection tests.
	SendErrs uint64
	RecvErrs uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.BytesSent += other.BytesSent
	s.BytesRecv += other.BytesRecv
	s.MsgsSent += other.MsgsSent
	s.MsgsRecv += other.MsgsRecv
	s.Rounds += other.Rounds
	s.SendErrs += other.SendErrs
	s.RecvErrs += other.RecvErrs
}

// Sub returns the counter delta s − prev, the per-span attribution math of
// internal/telemetry: snapshot before, snapshot after, subtract. Counters
// are monotone for snapshots of a live connection, but a concurrent
// ResetStats can produce prev > s; the subtraction saturates at zero so a
// torn pair never yields a wrapped (≈2^64) delta.
func (s Stats) Sub(prev Stats) Stats {
	sat := func(a, b uint64) uint64 {
		if a < b {
			return 0
		}
		return a - b
	}
	return Stats{
		BytesSent: sat(s.BytesSent, prev.BytesSent),
		BytesRecv: sat(s.BytesRecv, prev.BytesRecv),
		MsgsSent:  sat(s.MsgsSent, prev.MsgsSent),
		MsgsRecv:  sat(s.MsgsRecv, prev.MsgsRecv),
		Rounds:    sat(s.Rounds, prev.Rounds),
		SendErrs:  sat(s.SendErrs, prev.SendErrs),
		RecvErrs:  sat(s.RecvErrs, prev.RecvErrs),
	}
}

// TotalBytes is the traffic volume visible at this endpoint.
func (s Stats) TotalBytes() uint64 { return s.BytesSent + s.BytesRecv }

// MiB converts the total byte count to mebibytes, the unit of the paper's
// communication tables.
func (s Stats) MiB() float64 { return float64(s.TotalBytes()) / (1 << 20) }

func (s Stats) String() string {
	out := fmt.Sprintf("sent=%dB recv=%dB msgs=%d/%d rounds=%d",
		s.BytesSent, s.BytesRecv, s.MsgsSent, s.MsgsRecv, s.Rounds)
	if s.SendErrs != 0 || s.RecvErrs != 0 {
		out += fmt.Sprintf(" errs=%d/%d", s.SendErrs, s.RecvErrs)
	}
	return out
}

// Conn is one endpoint of a two-party channel.
type Conn interface {
	// Send transmits one frame. Send does not keep the payload: the
	// caller may reuse or overwrite it once Send returns.
	Send(payload []byte) error
	// Recv blocks for the next frame. The frame is the caller's; a
	// frame from RecvInto may alias the buffer the caller lent it.
	Recv() ([]byte, error)
	// Stats returns a snapshot of the endpoint's counters.
	Stats() Stats
	// ResetStats zeroes the counters (used between experiment phases).
	ResetStats()
	Close() error
}

// RecvInto receives c's next frame into dst when it can: when c reads
// into a caller's buffer (a TCP netConn, a context binding of one, a mux
// stream over either) and the frame's n bytes fit, n ≤ cap(dst) and n ≤
// ioChunk, the result is dst[:n]. Otherwise, and through any other Conn
// (a pipe, a Faults injector, a test decorator, all of which see every
// frame), it is what Recv returns, and dst is untouched. Either way the
// frame is accounted exactly as Recv's would be. A larger frame keeps
// Recv's incremental read, with its allocation growing only as the peer
// delivers.
func RecvInto(c Conn, dst []byte) ([]byte, error) {
	if s, ok := c.(*muxStream); ok {
		return s.recvInto(dst)
	}
	_, p, err := recvFrame(c, dst, false)
	return p, err
}

// frameRecver is a Conn that can read a frame into a caller's buffer:
// netConn, and ctxConn over one. With prefixed set the frame's first
// byte, a mux stream byte, is returned apart, and dst takes the rest.
type frameRecver interface {
	recvFrame(dst []byte, prefixed bool) (byte, []byte, error)
}

// recvFrame receives c's next frame, into dst where RecvInto would put
// it, and with prefixed set splits off its stream byte. A Conn that is
// not a frameRecver is read by Recv.
func recvFrame(c Conn, dst []byte, prefixed bool) (byte, []byte, error) {
	if r, ok := c.(frameRecver); ok {
		return r.recvFrame(dst, prefixed)
	}
	p, err := c.Recv()
	if err != nil || !prefixed {
		return 0, p, err
	}
	if len(p) == 0 {
		return 0, nil, errEmptyMuxFrame
	}
	return p[0], p[1:], nil
}

// statsTracker implements the shared counter logic. Every mutation and
// every snapshot happens under one mutex, so a snapshot taken while the
// peer goroutine is mid-Send observes either the whole operation or none
// of it — the per-span delta math of internal/telemetry (snapshot, run,
// snapshot, Sub) never sees a half-counted message or a round counted
// ahead of its receive.
type statsTracker struct {
	mu       sync.Mutex
	stats    Stats
	lastSend bool
}

func (t *statsTracker) noteSend(n int) {
	t.mu.Lock()
	t.stats.BytesSent += uint64(n)
	t.stats.MsgsSent++
	t.lastSend = true
	t.mu.Unlock()
}

func (t *statsTracker) noteRecv(n int) {
	t.mu.Lock()
	t.stats.BytesRecv += uint64(n)
	t.stats.MsgsRecv++
	if t.lastSend {
		t.stats.Rounds++
		t.lastSend = false
	}
	t.mu.Unlock()
}

func (t *statsTracker) noteSendErr() {
	t.mu.Lock()
	t.stats.SendErrs++
	t.mu.Unlock()
}

func (t *statsTracker) noteRecvErr() {
	t.mu.Lock()
	t.stats.RecvErrs++
	t.mu.Unlock()
}

func (t *statsTracker) snapshot() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

func (t *statsTracker) reset() {
	t.mu.Lock()
	t.stats = Stats{}
	t.lastSend = false
	t.mu.Unlock()
}

// pipeConn is one end of an in-memory duplex channel.
type pipeConn struct {
	statsTracker
	out  chan<- []byte
	in   <-chan []byte
	done chan struct{}
	once sync.Once
	peer *pipeConn
}

// Pipe returns the two connected endpoints of an in-memory channel. The
// internal buffering (1024 frames per direction) lets simple
// send-then-receive exchanges proceed without extra goroutines.
func Pipe() (Conn, Conn) {
	a2b := make(chan []byte, 1024)
	b2a := make(chan []byte, 1024)
	a := &pipeConn{out: a2b, in: b2a, done: make(chan struct{})}
	b := &pipeConn{out: b2a, in: a2b, done: make(chan struct{})}
	a.peer, b.peer = b, a
	return a, b
}

func (c *pipeConn) Send(payload []byte) error {
	// Check for closure first: the select below would otherwise choose
	// randomly between a ready buffer slot and a closed done channel.
	select {
	case <-c.done:
		c.noteSendErr()
		return ErrClosed
	case <-c.peer.done:
		c.noteSendErr()
		return ErrClosed
	default:
	}
	cp := append([]byte(nil), payload...)
	select {
	case <-c.done:
		c.noteSendErr()
		return ErrClosed
	case <-c.peer.done:
		c.noteSendErr()
		return ErrClosed
	case c.out <- cp:
		c.noteSend(len(cp))
		return nil
	}
}

func (c *pipeConn) Recv() ([]byte, error) {
	select {
	case <-c.done:
		c.noteRecvErr()
		return nil, ErrClosed
	case p, ok := <-c.in:
		if !ok {
			c.noteRecvErr()
			return nil, ErrClosed
		}
		c.noteRecv(len(p))
		return p, nil
	case <-c.peer.done:
		// Drain anything the peer sent before closing.
		select {
		case p := <-c.in:
			c.noteRecv(len(p))
			return p, nil
		default:
			c.noteRecvErr()
			return nil, ErrClosed
		}
	}
}

func (c *pipeConn) Stats() Stats { return c.snapshot() }
func (c *pipeConn) ResetStats()  { c.reset() }

func (c *pipeConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

// netConn frames messages over a stream connection with a 4-byte
// little-endian length prefix.
type netConn struct {
	statsTracker
	c  net.Conn
	wm sync.Mutex
	rm sync.Mutex

	lim Limits

	// bm guards the memory-budget ledger (used ≤ lim.MemBudget always).
	bm   sync.Mutex
	used uint64

	// dm guards the explicit receive deadline set by SetRecvDeadline.
	dm       sync.Mutex
	explicit time.Time
	// rArmed/wArmed track whether a deadline is currently set on the
	// socket, so unlimited connections never touch SetReadDeadline and a
	// cleared deadline is propagated exactly once. Guarded by rm/wm.
	rArmed bool
	wArmed bool

	// hdr is the frame header under construction: the 4-byte length, then
	// the mux's stream byte when the frame carries one. iov and bufs hold
	// the vectored write's buffer list. All three are guarded by wm.
	hdr  [5]byte
	iov  [2][]byte
	bufs net.Buffers
}

// NewNetConn wraps a stream connection (typically TCP) as a framed Conn
// with no resource limits.
func NewNetConn(c net.Conn) Conn { return &netConn{c: c} }

// NewNetConnLimits wraps a stream connection as a framed Conn enforcing
// the given resource limits (see Limits).
func NewNetConnLimits(c net.Conn, lim Limits) Conn { return &netConn{c: c, lim: lim} }

// Dial connects to a listening party at addr, retrying until the timeout
// elapses so that the two party processes may start in either order.
func Dial(addr string, timeout time.Duration) (Conn, error) {
	return DialContext(context.Background(), addr, timeout)
}

// ioChunk is the segment size for moving frame payloads: the idle
// deadline is re-armed and the receive buffer grown per segment, so
// neither allocation nor patience ever runs ahead of the bytes the peer
// has actually delivered.
const ioChunk = 1 << 20

func (c *netConn) Send(payload []byte) error {
	c.wm.Lock()
	defer c.wm.Unlock()
	return c.writeFrame(c.hdr[:4], payload)
}

// sendPrefixed sends prefix then payload as one frame, with no copy of
// payload: the mux's stream byte rides in the frame header's storage.
func (c *netConn) sendPrefixed(prefix byte, payload []byte) error {
	c.wm.Lock()
	defer c.wm.Unlock()
	c.hdr[4] = prefix
	return c.writeFrame(c.hdr[:5], payload)
}

// writeFrame writes one frame whose payload is hdr[4:] then payload,
// after setting hdr[:4] to its length. A frame of up to ioChunk bytes
// goes out in one vectored write; a larger one in writeAll's segments.
// Called with wm held; hdr is c.hdr.
func (c *netConn) writeFrame(hdr, payload []byte) error {
	n := len(hdr) - 4 + len(payload)
	if n > MaxFrame {
		c.noteSendErr()
		return &FrameError{Op: "send", Declared: uint64(n), Limit: MaxFrame}
	}
	binary.LittleEndian.PutUint32(hdr, uint32(n))
	var err error
	if n <= ioChunk {
		err = c.writeVec(hdr, payload)
	} else if err = c.writeAll(hdr); err == nil {
		err = c.writeAll(payload)
	}
	if err != nil {
		c.noteSendErr()
		return err
	}
	c.noteSend(n)
	return nil
}

// writeVec writes hdr then p in one vectored write (writev on TCP) under
// one idle write deadline. The buffer list lives in the conn, so the
// write allocates nothing.
func (c *netConn) writeVec(hdr, p []byte) error {
	if err := c.armWrite(); err != nil {
		return err
	}
	c.iov = [2][]byte{hdr, p}
	c.bufs = c.iov[:]
	_, err := c.bufs.WriteTo(c.c)
	// WriteTo consumes the list; a failed write may leave p behind.
	c.iov = [2][]byte{}
	if err != nil {
		return wrapIdle("send", err)
	}
	return nil
}

// armWrite sets the idle write deadline ahead of a write, or clears one
// left armed once the limits no longer ask for it.
func (c *netConn) armWrite() error {
	if c.lim.IdleTimeout > 0 {
		c.wArmed = true
		return c.c.SetWriteDeadline(time.Now().Add(c.lim.IdleTimeout))
	}
	if c.wArmed {
		c.wArmed = false
		return c.c.SetWriteDeadline(time.Time{})
	}
	return nil
}

// writeAll writes p in ioChunk segments, re-arming the idle write
// deadline before each: a peer that stops draining its socket (so our
// writes block on a full TCP window) is cut off after IdleTimeout.
func (c *netConn) writeAll(p []byte) error {
	for off := 0; off < len(p); off += ioChunk {
		end := min(off+ioChunk, len(p))
		if err := c.armWrite(); err != nil {
			return err
		}
		if _, err := c.c.Write(p[off:end]); err != nil {
			return wrapIdle("send", err)
		}
	}
	return nil
}

func (c *netConn) Recv() ([]byte, error) {
	_, p, err := c.recvFrame(nil, false)
	return p, err
}

func (c *netConn) recvFrame(dst []byte, prefixed bool) (byte, []byte, error) {
	c.rm.Lock()
	defer c.rm.Unlock()
	// A mux frame's stream byte is read with the length when it has
	// arrived with it, which saves a read per frame (BenchmarkMuxPingPong).
	// The read waits for the length alone, so an empty frame fails at once.
	var hdr [5]byte
	head := hdr[:4]
	if prefixed {
		head = hdr[:]
	}
	got, err := c.readAtLeast(head, 4)
	if err != nil {
		c.noteRecvErr()
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > MaxFrame {
		c.noteRecvErr()
		return 0, nil, &FrameError{Op: "recv", Declared: uint64(n), Limit: MaxFrame}
	}
	// Charge the declared length against the session budget BEFORE any
	// allocation: a hostile header costs the peer its session, not us our
	// memory.
	if err := c.reserve(uint64(n)); err != nil {
		c.noteRecvErr()
		return 0, nil, err
	}
	body := int(n)
	if prefixed {
		if n == 0 {
			// The frame is well formed; only the mux rejects it, which
			// poisons the mux, so a stream byte read past it is never missed.
			c.noteRecv(0)
			return 0, nil, errEmptyMuxFrame
		}
		if got == 4 {
			if err := c.readFull(hdr[4:]); err != nil {
				c.noteRecvErr()
				return 0, nil, err
			}
		}
		body--
	}
	p, err := c.readBody(body, dst)
	if err != nil {
		c.noteRecvErr()
		return 0, nil, err
	}
	c.noteRecv(int(n))
	return hdr[4], p, nil
}

// readBody reads an n-byte payload. A frame of up to ioChunk bytes is
// read in one shot, into dst when it fits there; a larger one
// incrementally, with the buffer grown geometrically and the idle
// deadline re-armed per segment — allocation tracks the bytes the peer
// has actually delivered, never just the length it declared. Callers
// have already checked n against MaxFrame and the budget.
func (c *netConn) readBody(n int, dst []byte) ([]byte, error) {
	if n <= ioChunk {
		var p []byte
		if n <= cap(dst) {
			p = dst[:n]
		} else {
			p = make([]byte, n)
		}
		if err := c.readFull(p); err != nil {
			return nil, err
		}
		return p, nil
	}
	p := make([]byte, ioChunk)
	read := 0
	for read < n {
		if read == len(p) {
			grown := make([]byte, min(2*len(p), n))
			copy(grown, p)
			p = grown
		}
		k := min(n-read, len(p)-read)
		if err := c.readFull(p[read : read+k]); err != nil {
			return nil, err
		}
		read += k
	}
	return p, nil
}

// readFull reads exactly len(p) bytes under the currently applicable
// receive deadline (the sooner of the idle timeout and any explicit
// SetRecvDeadline), mapping deadline expiry onto ErrIdleTimeout.
func (c *netConn) readFull(p []byte) error {
	_, err := c.readAtLeast(p, len(p))
	return err
}

// readAtLeast reads at least least bytes into p, as readFull does, and
// returns how many it read.
func (c *netConn) readAtLeast(p []byte, least int) (int, error) {
	if err := c.armReadDeadline(); err != nil {
		return 0, err
	}
	n, err := io.ReadAtLeast(c.c, p, least)
	if err != nil {
		return n, wrapIdle("recv", err)
	}
	return n, nil
}

func (c *netConn) armReadDeadline() error {
	c.dm.Lock()
	explicit := c.explicit
	c.dm.Unlock()
	var dl time.Time
	if c.lim.IdleTimeout > 0 {
		dl = time.Now().Add(c.lim.IdleTimeout)
	}
	if !explicit.IsZero() && (dl.IsZero() || explicit.Before(dl)) {
		dl = explicit
	}
	if dl.IsZero() && !c.rArmed {
		return nil
	}
	c.rArmed = !dl.IsZero()
	return c.c.SetReadDeadline(dl)
}

func (c *netConn) setRecvDeadline(t time.Time) {
	c.dm.Lock()
	c.explicit = t
	c.dm.Unlock()
}

func (c *netConn) reserve(n uint64) error {
	if c.lim.MemBudget == 0 {
		return nil
	}
	c.bm.Lock()
	defer c.bm.Unlock()
	if n > c.lim.MemBudget-c.used {
		return &BudgetError{Declared: n, Used: c.used, Budget: c.lim.MemBudget}
	}
	c.used += n
	return nil
}

// wrapIdle maps a network timeout onto ErrIdleTimeout while keeping the
// original error in the chain (it is a net.Error, which is what keeps
// the result classified transient by IsTransient).
func wrapIdle(op string, err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %s stalled past the deadline: %w", ErrIdleTimeout, op, err)
	}
	return err
}

func (c *netConn) Stats() Stats { return c.snapshot() }
func (c *netConn) ResetStats()  { c.reset() }
func (c *netConn) Close() error { return c.c.Close() }
