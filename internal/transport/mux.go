package transport

import (
	"bytes"
	"fmt"
	"sync"
)

// Mux multiplexes two logical streams over one Conn so a session can run
// its online protocol and its preprocessing fill subprotocol concurrently
// on a single TCP connection. Each frame carries a 1-byte prefix: the low
// nibble is the stream id, bit 0x10 marks a stream-close control frame,
// and every other bit must be zero. Per-stream byte/round accounting
// counts only the payload (prefix excluded), so the online stream's Stats
// stay byte-identical whether or not a fill is running beside it.
//
// There is no background demux goroutine. Receiving is "baton-passing":
// whichever substream needs a frame and finds its queue empty becomes the
// sole reader of the inner Conn, routing frames to queues until its own
// arrives; other substreams park on a condition variable. A process with
// no receiver pending reads nothing — the mux adds no goroutines to leak
// and no reads the session did not ask for.
const (
	// StreamMain carries the session's ordinary protocol traffic.
	StreamMain = 0
	// StreamPreproc carries the preprocessing fill subprotocol.
	StreamPreproc = 1

	muxStreams = 2

	muxIDMask  = 0x0F
	muxClose   = 0x10
	muxBadBits = ^byte(muxIDMask | muxClose)

	// muxQueueCap bounds the frames parked for a substream whose consumer
	// is not currently receiving. A peer that floods one stream while we
	// wait on the other is a flow violation, not a memory obligation.
	muxQueueCap = 1024
)

// MuxError reports a protocol violation on the multiplexed channel:
// malformed prefixes, unknown stream ids, or a queue overflow. Permanent
// by classification — a peer that frames wrongly will frame wrongly again.
type MuxError struct {
	Reason string
}

func (e *MuxError) Error() string { return "transport: mux: " + e.Reason }

// Mux owns the inner Conn once created; callers interact only with the
// substreams. Closing the main substream closes the whole mux (and the
// inner Conn); closing the preprocessing substream sends a best-effort
// close control so the peer's reader unblocks, keeping the main stream
// usable.
type Mux struct {
	inner Conn

	sendMu sync.Mutex // serialises prefix+payload writes to inner; taken before mu, never while holding it

	mu      sync.Mutex
	cond    *sync.Cond
	reading bool  // a substream currently holds the read baton
	err     error // first fatal error; poisons all future receives
	streams [muxStreams]*muxStream
}

// NewMux wraps inner and returns its two substreams.
func NewMux(inner Conn) (main, preproc Conn) {
	m := &Mux{inner: inner}
	m.cond = sync.NewCond(&m.mu)
	for id := range m.streams {
		m.streams[id] = &muxStream{mux: m, id: byte(id)}
	}
	return m.streams[StreamMain], m.streams[StreamPreproc]
}

type muxStream struct {
	statsTracker
	mux *Mux
	id  byte

	// queue, localClosed and remoteClosed are guarded by mux.mu.
	queue        [][]byte
	localClosed  bool
	remoteClosed bool
}

func (s *muxStream) Send(payload []byte) error {
	if len(payload) > MaxFrame-1 {
		s.noteSendErr()
		return &FrameError{Op: "send", Declared: uint64(len(payload)), Limit: MaxFrame - 1}
	}
	m := s.mux
	// sendMu is held from the closed check through the inner send, so a
	// concurrent Close cannot put its close control on the wire ahead of a
	// frame that passed the check: the peer would read that frame on a
	// remotely closed stream and poison the whole mux.
	m.sendMu.Lock()
	defer m.sendMu.Unlock()
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		s.noteSendErr()
		return err
	}
	if s.localClosed || s.remoteClosed {
		m.mu.Unlock()
		s.noteSendErr()
		return ErrClosed
	}
	m.mu.Unlock()

	if err := sendPrefixed(m.inner, s.id, payload); err != nil {
		s.noteSendErr()
		m.poison(err)
		return err
	}
	s.noteSend(len(payload))
	return nil
}

func (s *muxStream) Recv() ([]byte, error) { return s.recvInto(nil) }

// recvInto is Recv reading into dst: a frame this stream reads from the
// inner Conn itself lands in dst when the inner Conn can put it there
// (RecvInto). A frame it reads for the other stream is copied out of dst
// before it is queued, since dst is the caller's again once this returns.
func (s *muxStream) recvInto(dst []byte) ([]byte, error) {
	m := s.mux
	m.mu.Lock()
	for {
		if len(s.queue) > 0 {
			p := s.queue[0]
			s.queue = s.queue[1:]
			m.mu.Unlock()
			s.noteRecv(len(p))
			return p, nil
		}
		if m.err != nil {
			err := m.err
			m.mu.Unlock()
			s.noteRecvErr()
			return nil, err
		}
		if s.localClosed || s.remoteClosed {
			m.mu.Unlock()
			s.noteRecvErr()
			return nil, ErrClosed
		}
		if !m.reading {
			break
		}
		m.cond.Wait()
	}
	// Take the read baton: read inner frames (outside the lock) and route
	// them until one lands on our queue or the mux dies.
	m.reading = true
	for {
		m.mu.Unlock()
		prefix, p, err := recvFrame(m.inner, dst, true)
		if err == nil && prefix&muxIDMask != s.id && aliases(p, dst) {
			p = bytes.Clone(p)
		}
		m.mu.Lock()
		if err == nil {
			err = m.routeLocked(prefix, p)
		}
		if err != nil {
			m.reading = false
			if m.err == nil {
				m.err = err
			}
			err = m.err
			m.cond.Broadcast()
			m.mu.Unlock()
			s.noteRecvErr()
			return nil, err
		}
		m.cond.Broadcast()
		if len(s.queue) > 0 {
			out := s.queue[0]
			s.queue = s.queue[1:]
			m.reading = false
			m.cond.Broadcast()
			m.mu.Unlock()
			s.noteRecv(len(out))
			return out, nil
		}
		if s.localClosed || s.remoteClosed {
			m.reading = false
			m.cond.Broadcast()
			m.mu.Unlock()
			s.noteRecvErr()
			return nil, ErrClosed
		}
	}
}

// prefixSender is a Conn that sends a prefix byte and a payload as one
// frame without copying the payload: netConn, and ctxConn over one.
type prefixSender interface {
	sendPrefixed(prefix byte, payload []byte) error
}

// sendPrefixed sends prefix then payload as one frame of c. A Conn that
// is not a prefixSender (an in-memory pipe, a Faults injector, a test
// decorator) gets the frame as one copied slice, so it sees the bytes
// the peer will receive.
func sendPrefixed(c Conn, prefix byte, payload []byte) error {
	if ps, ok := c.(prefixSender); ok {
		return ps.sendPrefixed(prefix, payload)
	}
	framed := make([]byte, 1+len(payload))
	framed[0] = prefix
	copy(framed[1:], payload)
	return c.Send(framed)
}

// errEmptyMuxFrame is a frame too short to carry a stream byte.
var errEmptyMuxFrame = &MuxError{Reason: "empty frame (missing stream prefix)"}

// aliases reports whether p starts where dst does.
func aliases(p, dst []byte) bool {
	return cap(p) > 0 && cap(dst) > 0 && &p[:1][0] == &dst[:1][0]
}

// routeLocked validates one inner frame, its stream byte and payload, and
// delivers it. Called with mux.mu held.
func (m *Mux) routeLocked(prefix byte, p []byte) error {
	if prefix&muxBadBits != 0 {
		return &MuxError{Reason: fmt.Sprintf("reserved prefix bits set (0x%02x)", prefix)}
	}
	id := prefix & muxIDMask
	if int(id) >= muxStreams {
		return &MuxError{Reason: fmt.Sprintf("unknown stream id %d", id)}
	}
	dst := m.streams[id]
	if prefix&muxClose != 0 {
		if len(p) != 0 {
			return &MuxError{Reason: "close control frame carries payload"}
		}
		dst.remoteClosed = true
		return nil
	}
	if dst.remoteClosed {
		return &MuxError{Reason: fmt.Sprintf("frame on remotely closed stream %d", id)}
	}
	if len(dst.queue) >= muxQueueCap {
		return &MuxError{Reason: fmt.Sprintf("stream %d queue overflow (%d frames parked)", id, muxQueueCap)}
	}
	dst.queue = append(dst.queue, p)
	return nil
}

// poison records a fatal error and wakes every parked receiver.
func (m *Mux) poison(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.cond.Broadcast()
	m.mu.Unlock()
}

func (s *muxStream) Stats() Stats { return s.snapshot() }
func (s *muxStream) ResetStats()  { s.reset() }

// Unwrap exposes the inner Conn so decorator-traversing helpers
// (SetRecvDeadline, ReserveBudget) reach the transport below the mux.
func (s *muxStream) Unwrap() Conn { return s.mux.inner }

// Close on the main substream tears down the whole mux, including the
// inner Conn. Close on the preprocessing substream is cooperative: it
// sends a best-effort close control (so the peer's filler unblocks) and
// marks the stream locally closed, leaving the main stream running.
func (s *muxStream) Close() error {
	m := s.mux
	if s.id == StreamMain {
		m.poison(ErrClosed)
		return m.inner.Close()
	}
	m.mu.Lock()
	if s.localClosed {
		m.mu.Unlock()
		return nil
	}
	s.localClosed = true
	dead := m.err != nil
	m.cond.Broadcast()
	m.mu.Unlock()
	if dead {
		// The mux is already poisoned: the peer learns of the teardown
		// from the inner conn's own failure.
		return nil
	}
	// Send the close control even when the peer already half-closed its
	// end: a remote close can come from the peer's session teardown while
	// the peer's stream reader still blocks mid-exchange holding the read
	// baton — this control frame is what unblocks it. (Skipping it here is
	// a teardown deadlock: each side waits for the other's frame.)
	m.sendMu.Lock()
	err := sendPrefixed(m.inner, muxClose|s.id, nil)
	m.sendMu.Unlock()
	if err != nil {
		// Best effort: the peer learns of the closure from the inner
		// conn's own teardown instead.
		return nil
	}
	return nil
}
