package ot

import (
	"fmt"

	"aq2pnn/internal/parallel"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/transport"
)

// Beaver OT precomputation (the paper's reference [5]): expensive
// group-based OTs are executed ahead of time on *random* inputs, and the
// online phase derandomizes them with two cheap messages. The AS-CST
// buffer of the accelerator plays the same role for triples; this file
// plays it for OT correlations.

// SeedLen is the byte length of a random-OT pad seed.
const SeedLen = 16

// RecvInst is the receiver's view: a random choice c′ and the seed of pad
// c′ only.
type RecvInst struct {
	Choice int
	Seed   [SeedLen]byte
}

// Deal produces `count` correlated random 1-of-N OT instances from a
// single dealer PRG: the trusted-dealer offline phase used by the
// in-process experiments (the paper likewise treats offline material as
// pre-deployed constants). It is the first count instances of a fresh
// Dealer's party-0 stream of arity n. The sender's view is one flat seed
// slab, n seeds per instance: instance k's are entries k·n to (k+1)·n − 1.
func Deal(g *prg.PRG, n, count int) ([][SeedLen]byte, []RecvInst) {
	d := NewDealer(g)
	return d.TakeSender(nil, 0, n, count), d.TakeRecv(nil, 0, n, count)
}

// batchLen returns the number of instances in a non-empty flat candidate
// slab of n·msgLen bytes per instance.
func batchLen(n, msgLen, slab int) (int, error) {
	if n < 1 || msgLen < 1 || slab == 0 {
		return 0, fmt.Errorf("ot: empty batch or empty messages (%d candidates of %d bytes, %d-byte slab)", n, msgLen, slab)
	}
	if slab%(n*msgLen) != 0 {
		return 0, fmt.Errorf("ot: candidate slab of %d bytes is not whole instances of %d×%d bytes", slab, n, msgLen)
	}
	return slab / (n * msgLen), nil
}

// SendPre runs the online sender phase of a batch of derandomized 1-of-N
// OTs. cands holds the candidates instance-major, then candidate: m_l of
// instance k is cands[(k·N+l)·msgLen : (k·N+l+1)·msgLen]. pre must hold N
// precomputed seeds per instance. The receiver first reveals
// d = (c′ − c) mod N; the sender overwrites each candidate in place with
// e_l = m_l ⊕ pad_{(l+d) mod N} and sends cands as the frame. Online cost:
// 1 byte from the receiver and N·msgLen bytes from the sender per
// instance, in one message each. The peer's shifts are all checked before
// the pads are spread over pool (nil runs them serially).
func SendPre(c transport.Conn, pool *parallel.Pool, pre [][SeedLen]byte, n, msgLen int, cands []byte) error {
	count, err := batchLen(n, msgLen, len(cands))
	if err != nil {
		return err
	}
	if len(pre) < count*n {
		return fmt.Errorf("ot: %d precomputed seeds for %d transfers of arity %d", len(pre), count, n)
	}
	if n > 256 {
		return fmt.Errorf("ot: online derandomization supports N ≤ 256, got %d", n)
	}
	ds, err := c.Recv()
	if err != nil {
		return err
	}
	if len(ds) != count {
		return fmt.Errorf("ot: expected %d shift bytes, got %d", count, len(ds))
	}
	for _, d := range ds {
		if int(d) >= n {
			return fmt.Errorf("ot: shift %d out of range for N=%d", d, n)
		}
	}
	pool.Blocks(count, func(lo, hi int) {
		h := hashers.Get().(*hasher)
		for k := lo; k < hi; k++ {
			d, seeds := int(ds[k]), pre[k*n:(k+1)*n]
			for l := 0; l < n; l++ {
				h.padXor(cands[(k*n+l)*msgLen:(k*n+l+1)*msgLen], seeds[(l+d)%n])
			}
		}
		hashers.Put(h)
	})
	return c.Send(cands)
}

// RecvPre runs the online receiver phase: choices[k] selects instance k's
// message of length msgLen, returned at k·msgLen of one flat slab. Like
// SendPre it rejects N > 256 before any traffic: the shift travels as one
// byte. The pads are spread over pool (nil runs them serially).
func RecvPre(c transport.Conn, pool *parallel.Pool, pre []RecvInst, n int, choices []int, msgLen int) ([]byte, error) {
	if len(pre) < len(choices) {
		return nil, fmt.Errorf("ot: %d precomputed instances for %d transfers", len(pre), len(choices))
	}
	if n > 256 {
		return nil, fmt.Errorf("ot: online derandomization supports N ≤ 256, got %d", n)
	}
	ds := make([]byte, len(choices))
	for k, ch := range choices {
		if ch < 0 || ch >= n {
			return nil, fmt.Errorf("ot: choice %d outside [0,%d)", ch, n)
		}
		ds[k] = byte(((pre[k].Choice-ch)%n + n) % n)
	}
	if err := c.Send(ds); err != nil {
		return nil, err
	}
	cts, err := c.Recv()
	if err != nil {
		return nil, err
	}
	if len(cts) != len(choices)*n*msgLen {
		return nil, fmt.Errorf("ot: expected %d ciphertext bytes, got %d", len(choices)*n*msgLen, len(cts))
	}
	out := make([]byte, len(choices)*msgLen)
	pool.Blocks(len(choices), func(lo, hi int) {
		h := hashers.Get().(*hasher)
		for k := lo; k < hi; k++ {
			ch := choices[k]
			m := out[k*msgLen : (k+1)*msgLen]
			copy(m, cts[(k*n+ch)*msgLen:(k*n+ch+1)*msgLen])
			h.padXor(m, pre[k].Seed)
		}
		hashers.Put(h)
	})
	return out, nil
}
