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

// SenderInst is the sender's view of one precomputed random 1-of-N OT:
// N pad seeds.
type SenderInst struct {
	Seeds [][SeedLen]byte
}

// RecvInst is the receiver's view: a random choice c′ and the seed of pad
// c′ only.
type RecvInst struct {
	Choice int
	Seed   [SeedLen]byte
}

// Deal produces `count` correlated random 1-of-N OT instances from a
// single dealer PRG: the trusted-dealer offline phase used by the
// in-process experiments (the paper likewise treats offline material as
// pre-deployed constants).
func Deal(g *prg.PRG, n, count int) ([]SenderInst, []RecvInst) {
	snd := make([]SenderInst, count)
	rcv := make([]RecvInst, count)
	dealInto(g, n, snd, rcv)
	return snd, rcv
}

// dealInto fills snd and rcv, of equal length, with fresh correlations. All
// seeds of the call live in one slab, and each instance's Seeds is its
// capacity-clipped window of it. Per instance the draws are its n seeds,
// as one n·16-byte read, then the choice.
func dealInto(g *prg.PRG, n int, snd []SenderInst, rcv []RecvInst) {
	seeds := make([][SeedLen]byte, len(snd)*n)
	buf := make([]byte, n*SeedLen)
	for k := range snd {
		g.Read(buf)
		s := seeds[k*n : (k+1)*n : (k+1)*n]
		for l := range s {
			copy(s[l][:], buf[l*SeedLen:])
		}
		c := g.Intn(n)
		snd[k] = SenderInst{Seeds: s}
		rcv[k] = RecvInst{Choice: c, Seed: s[c]}
	}
}

// SendPre runs the online sender phase of a batch of derandomized 1-of-N
// OTs. pre must contain one precomputed instance per message set. The
// receiver first reveals d = (c′ − c) mod N; the sender answers with
// e_l = m_l ⊕ pad_{(l+d) mod N}. Online cost: 1 byte from the receiver and
// N·msgLen bytes from the sender per instance, in one message each. The
// peer's shifts are all checked before the pads are spread over pool (nil
// runs them serially).
func SendPre(c transport.Conn, pool *parallel.Pool, pre []SenderInst, n int, msgs [][][]byte) error {
	if len(pre) < len(msgs) {
		return fmt.Errorf("ot: %d precomputed instances for %d transfers", len(pre), len(msgs))
	}
	if n > 256 {
		return fmt.Errorf("ot: online derandomization supports N ≤ 256, got %d", n)
	}
	msgLen := -1
	for k := range msgs {
		if len(msgs[k]) != n {
			return fmt.Errorf("ot: instance %d has %d candidates, want %d", k, len(msgs[k]), n)
		}
		for _, m := range msgs[k] {
			if msgLen == -1 {
				msgLen = len(m)
			} else if len(m) != msgLen {
				return fmt.Errorf("ot: candidate messages have mixed lengths")
			}
		}
	}
	if msgLen <= 0 {
		return fmt.Errorf("ot: empty batch or empty messages")
	}
	ds, err := c.Recv()
	if err != nil {
		return err
	}
	if len(ds) != len(msgs) {
		return fmt.Errorf("ot: expected %d shift bytes, got %d", len(msgs), len(ds))
	}
	for k, d := range ds {
		if int(d) >= n {
			return fmt.Errorf("ot: shift %d out of range for N=%d", d, n)
		}
		if len(pre[k].Seeds) != n {
			return fmt.Errorf("ot: precomputed instance %d has arity %d, want %d", k, len(pre[k].Seeds), n)
		}
	}
	out := make([]byte, len(msgs)*n*msgLen)
	pool.Blocks(len(msgs), func(lo, hi int) {
		h := hashers.Get().(*hasher)
		for k := lo; k < hi; k++ {
			d, seeds := int(ds[k]), pre[k].Seeds
			for l := 0; l < n; l++ {
				e := out[(k*n+l)*msgLen : (k*n+l+1)*msgLen]
				h.pad(e, seeds[(l+d)%n])
				xorInto(e, msgs[k][l])
			}
		}
		hashers.Put(h)
	})
	return c.Send(out)
}

// RecvPre runs the online receiver phase: choices[k] selects instance k's
// message of length msgLen. Like SendPre it rejects N > 256 before any
// traffic: the shift travels as one byte. The pads are spread over pool
// (nil runs them serially).
func RecvPre(c transport.Conn, pool *parallel.Pool, pre []RecvInst, n int, choices []int, msgLen int) ([][]byte, error) {
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
	out := make([][]byte, len(choices))
	flat := make([]byte, len(choices)*msgLen)
	pool.Blocks(len(choices), func(lo, hi int) {
		h := hashers.Get().(*hasher)
		for k := lo; k < hi; k++ {
			ch := choices[k]
			m := flat[k*msgLen : (k+1)*msgLen]
			h.pad(m, pre[k].Seed)
			xorInto(m, cts[(k*n+ch)*msgLen:(k*n+ch+1)*msgLen])
			out[k] = m
		}
		hashers.Put(h)
	})
	return out, nil
}
