package transport

import (
	"encoding/binary"
	"fmt"
	"sync"

	"aq2pnn/internal/ring"
)

// PackElems serialises ring elements at the ring's wire width ⌈ℓ/8⌉,
// little-endian. This width is what makes the measured communication
// proportional to the adaptive bit-width.
func PackElems(r ring.Ring, xs []uint64) []byte {
	out := make([]byte, len(xs)*r.Bytes())
	PackElemsInto(out, r, xs)
	return out
}

// PackElemsInto packs xs into dst, which must be exactly len(xs)·⌈ℓ/8⌉
// bytes — the allocation-free form behind the pooled send path. The
// element widths of 2 and 4 bytes, the carriers the engine runs on, take
// one fixed-width store each.
func PackElemsInto(dst []byte, r ring.Ring, xs []uint64) {
	w := r.Bytes()
	if len(dst) != len(xs)*w {
		// A local programming error, not peer input: dst is sized by the
		// caller from the same xs/ring it passes in.
		panic(fmt.Sprintf("transport: PackElemsInto dst length %d for %d elements of width %d", len(dst), len(xs), w))
	}
	le := binary.LittleEndian
	switch w {
	case 2:
		for i, x := range xs {
			le.PutUint16(dst[2*i:], uint16(x&r.Mask))
		}
	case 4:
		for i, x := range xs {
			le.PutUint32(dst[4*i:], uint32(x&r.Mask))
		}
	default:
		for i, x := range xs {
			x &= r.Mask
			for b := 0; b < w; b++ {
				dst[i*w+b] = byte(x >> (8 * b))
			}
		}
	}
}

// sendBufs recycles the packed frames of SendElems. The Conn contract
// guarantees the payload is copied (pipe) or fully written (net) before
// Send returns, so the buffer is free for reuse the moment Send does.
var sendBufs = sync.Pool{New: func() any { return new([]byte) }}

func getSendBuf(n int) *[]byte {
	bp := sendBufs.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// UnpackElems is the inverse of PackElems. It fails when the payload length
// is not a multiple of the element width.
func UnpackElems(r ring.Ring, p []byte) ([]uint64, error) {
	w := r.Bytes()
	if len(p)%w != 0 {
		return nil, fmt.Errorf("transport: payload of %d bytes is not a multiple of element width %d", len(p), w)
	}
	xs := make([]uint64, len(p)/w)
	unpackInto(xs, r, p)
	return xs, nil
}

// UnpackElemsInto is the allocation-free form of UnpackElems: p must hold
// exactly len(dst) elements.
func UnpackElemsInto(dst []uint64, r ring.Ring, p []byte) error {
	if len(p) != len(dst)*r.Bytes() {
		return fmt.Errorf("transport: payload of %d bytes for %d elements of width %d", len(p), len(dst), r.Bytes())
	}
	unpackInto(dst, r, p)
	return nil
}

// unpackInto decodes len(dst) elements of p, masked to the ring. The
// element widths of 2 and 4 bytes take one fixed-width load each.
func unpackInto(dst []uint64, r ring.Ring, p []byte) {
	le := binary.LittleEndian
	switch w := r.Bytes(); w {
	case 2:
		for i := range dst {
			dst[i] = uint64(le.Uint16(p[2*i:])) & r.Mask
		}
	case 4:
		for i := range dst {
			dst[i] = uint64(le.Uint32(p[4*i:])) & r.Mask
		}
	default:
		for i := range dst {
			var x uint64
			for b := 0; b < w; b++ {
				x |= uint64(p[i*w+b]) << (8 * b)
			}
			dst[i] = x & r.Mask
		}
	}
}

// SendElems transmits a ring-element vector in one frame, packing it
// through the buffer pool so steady-state sends allocate nothing.
func SendElems(c Conn, r ring.Ring, xs []uint64) error {
	bp := getSendBuf(len(xs) * r.Bytes())
	PackElemsInto(*bp, r, xs)
	err := c.Send(*bp)
	sendBufs.Put(bp)
	return err
}

// RecvElems receives a ring-element vector, checking the expected length.
func RecvElems(c Conn, r ring.Ring, n int) ([]uint64, error) {
	p, err := c.Recv()
	if err != nil {
		return nil, err
	}
	xs, err := UnpackElems(r, p)
	if err != nil {
		return nil, err
	}
	if len(xs) != n {
		return nil, fmt.Errorf("transport: expected %d elements, received %d", n, len(xs))
	}
	return xs, nil
}

// Exchange performs the symmetric send+receive that opens masked values
// (e.g. the E matrices of AS-GEMM): each party transmits its share and
// receives the peer's. Party 0 sends first; with the buffered pipe and TCP
// framing both orders are deadlock-free, but a fixed order keeps round
// accounting deterministic.
func Exchange(c Conn, r ring.Ring, party int, mine []uint64) ([]uint64, error) {
	if party == 0 {
		if err := SendElems(c, r, mine); err != nil {
			return nil, err
		}
		return RecvElems(c, r, len(mine))
	}
	theirs, err := RecvElems(c, r, len(mine))
	if err != nil {
		return nil, err
	}
	if err := SendElems(c, r, mine); err != nil {
		return nil, err
	}
	return theirs, nil
}

// ExchangeOpen exchanges shares of a masked vector and returns the opened
// (reconstructed) values: rec([[x]]) = x_mine + x_theirs mod Q.
func ExchangeOpen(c Conn, r ring.Ring, party int, mine []uint64) ([]uint64, error) {
	theirs, err := Exchange(c, r, party, mine)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(mine))
	r.AddVec(out, mine, theirs)
	return out, nil
}

// SendBytes / RecvBytes are thin aliases used by the OT layer for pad and
// token traffic, so that all accounting funnels through the same Conn.

// SendBytes transmits raw bytes as one frame.
func SendBytes(c Conn, p []byte) error { return c.Send(p) }

// RecvBytes receives one frame of raw bytes.
func RecvBytes(c Conn) ([]byte, error) { return c.Recv() }
