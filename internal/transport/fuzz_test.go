package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"
)

// byteStream is a net.Conn whose read side replays a fixed byte string —
// exactly what a hostile peer's socket looks like to the framing layer.
// Writes are swallowed and deadlines are no-ops.
type byteStream struct {
	r *bytes.Reader
}

func (s *byteStream) Read(p []byte) (int, error)       { return s.r.Read(p) }
func (s *byteStream) Write(p []byte) (int, error)      { return len(p), nil }
func (s *byteStream) Close() error                     { return nil }
func (s *byteStream) LocalAddr() net.Addr              { return nil }
func (s *byteStream) RemoteAddr() net.Addr             { return nil }
func (s *byteStream) SetDeadline(time.Time) error      { return nil }
func (s *byteStream) SetReadDeadline(time.Time) error  { return nil }
func (s *byteStream) SetWriteDeadline(time.Time) error { return nil }

// FuzzRecvFrame throws arbitrary byte streams at the framed receiver,
// through Recv, through RecvInto with a buffer shorter and one longer
// than every frame the input can hold (and longer than ioChunk), and
// through the mux's prefixed read. Whatever the peer declares, a read
// must never return a frame above MaxFrame, never hand out more total
// bytes than the session budget allows, and never panic; RecvInto must
// return its buffer exactly when the frame fits it and ioChunk, and leave
// the buffer untouched otherwise.
func FuzzRecvFrame(f *testing.F) {
	frame := func(p []byte) []byte {
		hdr := []byte{byte(len(p)), byte(len(p) >> 8), byte(len(p) >> 16), byte(len(p) >> 24)}
		return append(hdr, p...)
	}
	f.Add(frame([]byte("abcd")), uint64(0))
	f.Add(frame([]byte("hello")), uint64(4))                                   // frame above budget
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 'x'}, uint64(1<<20))                  // giant declared length
	f.Add([]byte{8, 0, 0, 0, 'a', 'b'}, uint64(0))                             // truncated body
	f.Add(append(frame([]byte("one")), frame([]byte("twotwo"))...), uint64(9)) // budget across frames
	f.Add(append(frame(nil), frame([]byte("x"))...), uint64(0))                // empty frame first
	f.Add([]byte{0, 0, 16, 0, 'y'}, uint64(0))                                 // 1 MiB declared: ioChunk
	f.Add([]byte{1, 0, 16, 0, 'z'}, uint64(0))                                 // one byte over ioChunk
	f.Add([]byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, budget uint64) {
		short, long := make([]byte, 3), make([]byte, ioChunk+1)
		for mode, dst := range [][]byte{nil, short, long, long} {
			conn := NewNetConnLimits(&byteStream{r: bytes.NewReader(data)}, Limits{MemBudget: budget})
			clear(dst)
			var used uint64
			for {
				var p []byte
				var err error
				switch mode {
				case 0:
					p, err = conn.Recv()
				case 1, 2:
					p, err = RecvInto(conn, dst)
				case 3:
					_, p, err = recvFrame(conn, dst, true)
					used++ // the stream byte
				}
				if err != nil {
					break
				}
				if len(p) > MaxFrame {
					t.Fatalf("mode %d returned a %d-byte frame above MaxFrame %d", mode, len(p), MaxFrame)
				}
				used += uint64(len(p))
				if budget > 0 && used > budget {
					t.Fatalf("mode %d handed out %d bytes past the %d-byte budget", mode, used, budget)
				}
				if mode == 0 || len(p) == 0 {
					continue
				}
				if fits := len(p) <= cap(dst) && len(p) <= ioChunk; aliases(p, dst) != fits {
					t.Fatalf("mode %d: %d-byte frame in a %d-byte buffer: %v, want %v", mode, len(p), cap(dst), aliases(p, dst), fits)
				}
				// A frame read from data writes at most len(data) bytes.
				if !aliases(p, dst) && bytes.Count(dst[:min(len(data), cap(dst))], []byte{0}) != min(len(data), cap(dst)) {
					t.Fatalf("mode %d: a frame that did not fit wrote into the buffer", mode)
				}
				clear(p)
			}
		}
	})
}

// TestRecvIntoHostileLengths: a lent buffer changes nothing a hostile
// length header can do. Through RecvInto and the mux's prefixed read, a
// length over MaxFrame fails as a FrameError and one over the budget as
// a BudgetError, both before the body is read; a frame over ioChunk is
// read by Recv's incremental growth, not into the buffer, even when the
// buffer could hold it.
func TestRecvIntoHostileLengths(t *testing.T) {
	hdr := func(n uint32) []byte { return binary.LittleEndian.AppendUint32(nil, n) }
	dst := make([]byte, 2*ioChunk)
	recvs := map[string]func(Conn) ([]byte, error){
		"RecvInto": func(c Conn) ([]byte, error) { return RecvInto(c, dst) },
		"prefixed": func(c Conn) ([]byte, error) {
			_, p, err := recvFrame(c, dst, true)
			return p, err
		},
	}
	for name, recv := range recvs {
		conn := NewNetConn(&byteStream{r: bytes.NewReader(hdr(MaxFrame + 1))})
		var fe *FrameError
		if _, err := recv(conn); !errors.As(err, &fe) {
			t.Errorf("%s: length over MaxFrame: %v, want a FrameError", name, err)
		}
		conn = NewNetConnLimits(&byteStream{r: bytes.NewReader(append(hdr(100), make([]byte, 100)...))}, Limits{MemBudget: 99})
		var be *BudgetError
		if _, err := recv(conn); !errors.As(err, &be) {
			t.Errorf("%s: length over the budget: %v, want a BudgetError", name, err)
		}
		big := append(hdr(ioChunk+2), bytes.Repeat([]byte{7}, ioChunk+2)...)
		p, err := recv(NewNetConn(&byteStream{r: bytes.NewReader(big)}))
		if err != nil || aliases(p, dst) || len(p) < ioChunk || bytes.Count(p, []byte{7}) != len(p) {
			t.Errorf("%s: frame over ioChunk: %d bytes, in the lent buffer %v, %v", name, len(p), aliases(p, dst), err)
		}
	}
}
