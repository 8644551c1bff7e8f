package ot

import (
	"encoding/binary"
	"fmt"

	"aq2pnn/internal/parallel"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/transport"
)

// IKNP-style OT extension: after κ base OTs (run once, in reversed roles,
// through the Fig. 4 OT-flow), the parties can mint an unbounded stream of
// random 1-of-2 OT correlations with nothing but PRG expansion, XOR and
// hashing — three orders of magnitude cheaper than public-key base OTs.
// This is what makes the dealer-free two-process deployment scale beyond
// demo models; 1-of-2^t correlations are built by combining t extended
// instances.
//
// Protocol sketch (sender S of the resulting OTs, receiver R):
//
//	setup:  R samples κ seed PAIRS and plays base-OT sender; S samples a
//	        secret Δ ∈ {0,1}^κ and receives seed k_{Δᵢ,i} per column.
//	extend: R picks random choice bits r (one per new OT) and sends, per
//	        column i, uᵢ = G(k₀ᵢ) ⊕ G(k₁ᵢ) ⊕ r. S computes
//	        qᵢ = G(k_{Δᵢ,i}) ⊕ Δᵢ·uᵢ, so row j satisfies q_j = t_j ⊕ r_j·Δ.
//	output: S's two pads for OT j are H(j, q_j) and H(j, q_j ⊕ Δ); R holds
//	        H(j, t_j) — the pad selected by its random bit r_j.
//
// Implementation: G is prg.Keystream, which writes exactly the ⌈m/8⌉
// bytes a column needs into one κ-column slab; the columns become rows by
// an 8×8-block bit transpose (transposeBits) into a caller-owned row slab;
// H is the fixed-key-AES hash of hash.go, tweaked by counter and j, with κ
// = 128 so that a row is one block. The κ column expansions and the m row
// hashes are independent, so an endpoint refill blocks both over the
// endpoint's pool, and each pool chunk hashes its rows in batches. Only
// the u-matrix crosses the wire; TestOTTranscriptPinned pins it and the
// minted seeds byte for byte.

// ExtKappa is the security parameter: the number of base-OT columns.
const ExtKappa = 128

// ExtSender is the extension state of the party that will act as the
// random-OT sender. It plays the base-OT *receiver* during setup.
type ExtSender struct {
	conn  transport.Conn
	delta []byte // κ bits, packed
	seeds [][SeedLen]byte
	// counter salts the per-row hash across Extend calls.
	counter uint64
}

// ExtReceiver is the counterpart state (base-OT sender during setup).
type ExtReceiver struct {
	conn    transport.Conn
	rng     *prg.PRG
	pairs   [][2][SeedLen]byte
	counter uint64
}

// checkKappa rejects every κ but ExtKappa before any traffic: a smaller Δ
// can be guessed (κ = 8 is 256 tries), and the row hash reads a κ-bit row
// as exactly one AES block.
func checkKappa(kappa int) error {
	if kappa != ExtKappa {
		return fmt.Errorf("ot: extension kappa %d, want %d", kappa, ExtKappa)
	}
	return nil
}

// NewExtSender runs the reversed base OTs as their receiver, with secret
// choice bits Δ. kappa must be ExtKappa.
func NewExtSender(conn transport.Conn, grp Group, rng *prg.PRG, kappa int) (*ExtSender, error) {
	if err := checkKappa(kappa); err != nil {
		return nil, err
	}
	delta := make([]byte, kappa/8)
	rng.Read(delta)
	choices := make([]int, kappa)
	for i := range choices {
		choices[i] = int(bitOf(delta, i))
	}
	got, err := FlowRecv(conn, rng, 2, choices, SeedLen)
	if err != nil {
		return nil, fmt.Errorf("ot: extension base phase: %w", err)
	}
	seeds := make([][SeedLen]byte, kappa)
	for i := range seeds {
		copy(seeds[i][:], got[i])
	}
	return &ExtSender{conn: conn, delta: delta, seeds: seeds}, nil
}

// NewExtReceiver runs the reversed base OTs as their sender. kappa must be
// ExtKappa.
func NewExtReceiver(conn transport.Conn, grp Group, rng *prg.PRG, kappa int) (*ExtReceiver, error) {
	if err := checkKappa(kappa); err != nil {
		return nil, err
	}
	pairs := make([][2][SeedLen]byte, kappa)
	msgs := make([][][]byte, kappa)
	for i := range pairs {
		rng.Read(pairs[i][0][:])
		rng.Read(pairs[i][1][:])
		msgs[i] = [][]byte{pairs[i][0][:], pairs[i][1][:]}
	}
	if err := FlowSend(conn, grp, rng, 2, msgs); err != nil {
		return nil, fmt.Errorf("ot: extension base phase: %w", err)
	}
	return &ExtReceiver{conn: conn, rng: rng, pairs: pairs}, nil
}

// expandColumn fills dst with a column seed's keystream; the salt keeps
// successive Extend calls on fresh keystream.
func expandColumn(dst []byte, seed [SeedLen]byte, salt uint64) {
	var s [prg.SeedSize]byte
	copy(s[:SeedLen], seed[:])
	binary.LittleEndian.PutUint64(s[SeedLen:SeedLen+8], salt)
	s[prg.SeedSize-1] = 0xE7
	prg.Keystream(dst, s)
}

func bitOf(b []byte, i int) byte { return (b[i/8] >> (i % 8)) & 1 }

// transposeBits turns κ columns of m bits into m rows of κ bits. Column i
// is cols[i·⌈m/8⌉ : (i+1)·⌈m/8⌉], bit j at bit j%8 of byte j/8; row j is
// written to rows[j·κ/8 : (j+1)·κ/8] with column i's bit at bit i%8 of
// byte i/8. It moves 8×8 bit blocks — eight column bytes gathered into
// one word, transposed in three swap steps — and writes only the rows
// below m, so the tail bits of a final partial column byte are ignored.
func transposeBits(rows, cols []byte, kappa, m int) {
	nBytes, rowLen := (m+7)/8, kappa/8
	for jb := 0; jb < nBytes; jb++ {
		nr := min(8, m-8*jb)
		for ib := 0; ib < rowLen; ib++ {
			var x uint64
			for c := 0; c < 8; c++ {
				x |= uint64(cols[(8*ib+c)*nBytes+jb]) << (8 * c)
			}
			x = transpose8(x)
			for r := 0; r < nr; r++ {
				rows[(8*jb+r)*rowLen+ib] = byte(x >> (8 * r))
			}
		}
	}
}

// transpose8 transposes the 8×8 bit matrix held in x, bit 8r+c being
// entry (r, c): it swaps the off-diagonal 1×1, then 2×2, then 4×4 blocks.
func transpose8(x uint64) uint64 {
	t := (x ^ (x >> 7)) & 0x00AA00AA00AA00AA
	x ^= t ^ (t << 7)
	t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCC
	x ^= t ^ (t << 14)
	t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0
	return x ^ t ^ (t << 28)
}

// Extend mints m random 1-of-2 OT correlations on the sender side,
// serially; the endpoint's refills run the same steps over its pool.
func (s *ExtSender) Extend(m int) ([]SenderInst, error) { return s.extend(nil, m) }

// extend is Extend with the κ column expansions and the m row hashes
// blocked over pool (nil runs them serially); the output is identical at
// every worker count.
func (s *ExtSender) extend(pool *parallel.Pool, m int) ([]SenderInst, error) {
	if m <= 0 {
		return nil, fmt.Errorf("ot: extension of %d instances", m)
	}
	kappa := len(s.seeds)
	nBytes, rowLen := (m+7)/8, kappa/8
	us, err := s.conn.Recv()
	if err != nil {
		return nil, err
	}
	if len(us) != kappa*nBytes {
		return nil, fmt.Errorf("ot: extension expected %d u-bytes, got %d", kappa*nBytes, len(us))
	}
	// q columns: qᵢ = G(k_{Δᵢ}) ⊕ Δᵢ·uᵢ.
	cols := make([]byte, kappa*nBytes)
	pool.Blocks(kappa, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			col := cols[i*nBytes : (i+1)*nBytes]
			expandColumn(col, s.seeds[i], s.counter)
			if bitOf(s.delta, i) == 1 {
				xorInto(col, us[i*nBytes:(i+1)*nBytes])
			}
		}
	})
	rows := make([]byte, m*rowLen)
	transposeBits(rows, cols, kappa, m)
	out := make([]SenderInst, m)
	seeds := make([][SeedLen]byte, 2*m)
	pool.Blocks(m, func(lo, hi int) {
		h := hashers.Get().(*hasher)
		h.rowHashesSend(seeds[2*lo:2*hi], rows[lo*rowLen:hi*rowLen], s.delta, s.counter, lo)
		hashers.Put(h)
		for j := lo; j < hi; j++ {
			out[j] = SenderInst{Seeds: seeds[2*j : 2*j+2 : 2*j+2]}
		}
	})
	s.counter++
	return out, nil
}

// Extend mints m random 1-of-2 OT correlations on the receiver side,
// serially; the endpoint's refills run the same steps over its pool.
func (r *ExtReceiver) Extend(m int) ([]RecvInst, error) { return r.extend(nil, m) }

// extend is the receiver counterpart of ExtSender.extend.
func (r *ExtReceiver) extend(pool *parallel.Pool, m int) ([]RecvInst, error) {
	if m <= 0 {
		return nil, fmt.Errorf("ot: extension of %d instances", m)
	}
	kappa := len(r.pairs)
	nBytes, rowLen := (m+7)/8, kappa/8
	choice := make([]byte, nBytes)
	r.rng.Read(choice)
	// t columns and the u transmission: uᵢ = G(k₀ᵢ) ⊕ G(k₁ᵢ) ⊕ r.
	tCols := make([]byte, kappa*nBytes)
	us := make([]byte, kappa*nBytes)
	pool.Blocks(kappa, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t0, u := tCols[i*nBytes:(i+1)*nBytes], us[i*nBytes:(i+1)*nBytes]
			expandColumn(t0, r.pairs[i][0], r.counter)
			expandColumn(u, r.pairs[i][1], r.counter)
			xorInto(u, t0)
			xorInto(u, choice)
		}
	})
	if err := r.conn.Send(us); err != nil {
		return nil, err
	}
	rows := make([]byte, m*rowLen)
	transposeBits(rows, tCols, kappa, m)
	out := make([]RecvInst, m)
	pool.Blocks(m, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			out[j].Choice = int(bitOf(choice, j))
		}
		h := hashers.Get().(*hasher)
		h.rowHashesRecv(out[lo:hi], rows[lo*rowLen:hi*rowLen], r.counter, lo)
		hashers.Put(h)
	})
	r.counter++
	return out, nil
}
