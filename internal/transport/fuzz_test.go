package transport

import (
	"bytes"
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

// FuzzRecvFrame throws arbitrary byte streams at the framed receiver.
// Whatever the peer declares, Recv must never return a frame above
// MaxFrame, never hand out more total bytes than the session budget
// allows, and never panic.
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
	f.Add([]byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, budget uint64) {
		conn := NewNetConnLimits(&byteStream{r: bytes.NewReader(data)}, Limits{MemBudget: budget})
		var used uint64
		for {
			p, err := conn.Recv()
			if err != nil {
				return
			}
			if len(p) > MaxFrame {
				t.Fatalf("Recv returned a %d-byte frame above MaxFrame %d", len(p), MaxFrame)
			}
			used += uint64(len(p))
			if budget > 0 && used > budget {
				t.Fatalf("Recv handed out %d bytes past the %d-byte budget", used, budget)
			}
		}
	})
}
