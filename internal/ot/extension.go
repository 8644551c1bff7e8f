package ot

import (
	"crypto/aes"
	"crypto/subtle"
	"encoding/binary"
	"fmt"

	"aq2pnn/internal/parallel"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
)

// IKNP-style OT extension: after κ base OTs, the parties can mint an
// unbounded stream of random 1-of-2 OT correlations with nothing but PRG
// expansion, XOR and hashing — three orders of magnitude cheaper than
// public-key base OTs. This is what makes the dealer-free two-process
// deployment scale beyond demo models; 1-of-2^t correlations are built by
// combining t extended instances.
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
// The setup's κ base OTs need not be public-key ones. Only the first
// direction an endpoint uses runs the Fig. 4 OT-flow (NewExtSender,
// NewExtReceiver); any κ random 1-of-2 OTs serve as well, so the reverse
// direction takes κ OTs extended in the first one (mintBase): the
// receiver's (choice, seed) views become the reverse sender's (Δ, k_Δ),
// the sender's seed pairs the reverse receiver's pairs (OT is symmetric,
// Wolf–Wullschleger, EUROCRYPT 2006). The mint is an extend call of its
// own domain (domBase): its own counter, column-seed byte and row-hash
// tag, so it shares no column stream and no tweak with the refills
// (domStock), and its seeds never reach a stock. A session stream runs
// this set-up once and keeps both directions' base state (Plane,
// plane.go); every later endpoint of the stream continues those IKNP
// instances in a counter namespace of its own.
//
// Implementation: G is AES-128 in counter mode, keyed by the column seed
// and started at the call's columnIV, so that it equals prg.Keystream
// under the seed and that IV. Each column is keyed once, where its base
// state is built (colKey, perm.go), and its expansion writes exactly the
// ⌈m/8⌉ bytes the column needs into one recycled κ-column slab. H is the
// fixed-key-AES hash of hash.go, tweaked by domain, counter and j, with
// κ = 128 so that a row is one block. The κ column expansions are
// independent, and so are the ⌈m/64⌉ row blocks: an endpoint refill
// blocks both over the endpoint's pool, and each pool chunk turns its row
// blocks from columns into rows (transposeBlock, a 64×64 bit transpose
// per 64 columns) in its hasher's staging and hashes them there, so no
// whole-matrix row slab exists. Only the u-matrix crosses the wire;
// TestOTTranscriptPinned pins it and the minted seeds byte for byte.

// ExtKappa is the security parameter: the number of base-OT columns.
const ExtKappa = 128

// Extend-call domains, each with its own counter per direction, column-seed
// byte and row-hash tag.
const (
	domStock = iota // refills that feed an endpoint's stock
	domBase         // the κ-OT mint that bootstraps the reverse direction
)

var (
	domSeedByte = [2]byte{0xE7, 0x5B}
	domTag      = [2]byte{tagRow, tagBase}
)

// ExtSender is the extension state of the party that will act as the
// random-OT sender. It plays the base-OT *receiver* during setup.
type ExtSender struct {
	conn  transport.Conn
	delta []byte // κ bits, packed
	seeds [][SeedLen]byte
	keys  []colKey // seeds[i] keyed, shared read-only like delta and seeds
	// counter salts the column expansion and the row hash across extend
	// calls, one count per domain.
	counter [2]uint64
}

// ExtReceiver is the counterpart state (base-OT sender during setup).
type ExtReceiver struct {
	conn    transport.Conn
	rng     *prg.PRG
	pairs   [][2][SeedLen]byte
	keys    [][2]colKey // pairs[i] keyed, shared read-only like pairs
	counter [2]uint64
}

// newExtSender is the extension sender over conn with base choices Δ and
// the seeds they chose. It keys every column once: its endpoints and
// every endpoint derived from its plane reuse the keys in each extend call.
func newExtSender(conn transport.Conn, delta []byte, seeds [][SeedLen]byte) *ExtSender {
	keys := make([]colKey, len(seeds))
	for i, s := range seeds {
		keys[i] = newColKey(s)
	}
	return &ExtSender{conn: conn, delta: delta, seeds: seeds, keys: keys}
}

// newExtReceiver is the extension receiver over conn with base seed pairs
// pairs, drawing choice bits from rng. It keys both seeds of every column
// once, as newExtSender does.
func newExtReceiver(conn transport.Conn, rng *prg.PRG, pairs [][2][SeedLen]byte) *ExtReceiver {
	keys := make([][2]colKey, len(pairs))
	for i, p := range pairs {
		keys[i] = [2]colKey{newColKey(p[0]), newColKey(p[1])}
	}
	return &ExtReceiver{conn: conn, rng: rng, pairs: pairs, keys: keys}
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
// choice bits Δ: one public-key set-up, counted in
// aq2pnn_ot_base_setups_total. kappa must be ExtKappa.
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
	telemetry.Count("aq2pnn_ot_base_setups_total", 1)
	return newExtSender(conn, delta, seeds), nil
}

// NewExtReceiver runs the reversed base OTs as their sender: one
// public-key set-up, counted in aq2pnn_ot_base_setups_total. kappa must be
// ExtKappa.
func NewExtReceiver(conn transport.Conn, grp Group, rng *prg.PRG, kappa int) (*ExtReceiver, error) {
	if err := checkKappa(kappa); err != nil {
		return nil, err
	}
	if grp.P == nil {
		return nil, fmt.Errorf("ot: extension base phase without a group")
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
	telemetry.Count("aq2pnn_ot_base_setups_total", 1)
	return newExtReceiver(conn, rng, pairs), nil
}

// mintBase extends κ random OTs in the base domain and starts the
// reverse direction from the sender's half: its seed pairs become the
// reverse extension receiver's, which draws its choice bits from rng.
func (s *ExtSender) mintBase(pool *parallel.Pool, rng *prg.PRG) (*ExtReceiver, error) {
	raw, err := s.extend(pool, domBase, ExtKappa)
	if err != nil {
		return nil, err
	}
	pairs := make([][2][SeedLen]byte, ExtKappa)
	for i := range pairs {
		pairs[i] = [2][SeedLen]byte{raw[2*i], raw[2*i+1]}
	}
	return newExtReceiver(s.conn, rng, pairs), nil
}

// mintBase is the receiver counterpart: its choice bits and seeds become
// the reverse extension sender's Δ and chosen seeds.
func (r *ExtReceiver) mintBase(pool *parallel.Pool) (*ExtSender, error) {
	raw, err := r.extend(pool, domBase, ExtKappa)
	if err != nil {
		return nil, err
	}
	delta, seeds := make([]byte, ExtKappa/8), make([][SeedLen]byte, ExtKappa)
	for i, v := range raw {
		delta[i/8] |= byte(v.Choice) << (i % 8)
		seeds[i] = v.Seed
	}
	return newExtSender(r.conn, delta, seeds), nil
}

// columnIV is the first counter block of every column's expansion in one
// extend call: the call's counter, little-endian, in bytes 0–7 and the
// domain's byte in byte 15. The domain and its counter keep every extend
// call of a direction on fresh keystream: an expansion counts up in bytes
// 8–15 only, so no column reaches another call's counter bytes.
func columnIV(dom int, counter uint64) (iv [aes.BlockSize]byte) {
	binary.LittleEndian.PutUint64(iv[:8], counter)
	iv[aes.BlockSize-1] = domSeedByte[dom]
	return iv
}

func bitOf(b []byte, i int) byte { return (b[i/8] >> (i % 8)) & 1 }

// rowBlock is the number of rows transposeBlock turns at once.
const rowBlock = 64

// transposeBlock turns rows 64·rb to 64·rb+63 of ExtKappa columns of m
// bits into rows of ExtKappa bits. Column i is cols[i·⌈m/8⌉ : (i+1)·⌈m/8⌉],
// bit j at bit j%8 of byte j/8; row 64·rb+r is written to
// dst[r·κ/8 : (r+1)·κ/8] with column i's bit at bit i%8 of byte i/8. Per
// 64 columns it loads each column's 64 bits of the block as one
// little-endian word, zero-padded past the column's end, and transposes
// the 64×64 bit matrix in six block-swap levels. It writes only the rows
// below m, so the tail bits of a final partial column byte are ignored.
// Indices into the 64-word tile are masked with 63 so that the compiler
// drops their bounds checks.
func transposeBlock(dst, cols []byte, m, rb int) {
	const rowLen = ExtKappa / 8
	nBytes := (m + 7) / 8
	nr, off := min(rowBlock, m-rowBlock*rb), 8*rb
	whole := off+8 <= nBytes
	var w [64]uint64
	for c0 := 0; c0 < ExtKappa; c0 += 64 {
		for c := range 64 {
			p := (c0+c)*nBytes + off
			if whole {
				w[c&63] = binary.LittleEndian.Uint64(cols[p:])
			} else {
				var tail [8]byte
				copy(tail[:], cols[p:(c0+c+1)*nBytes])
				w[c&63] = binary.LittleEndian.Uint64(tail[:])
			}
		}
		transpose64(&w)
		for r := range nr {
			binary.LittleEndian.PutUint64(dst[r*rowLen+c0/8:], w[r&63])
		}
	}
}

// transpose64 transposes the 64×64 bit matrix whose row r is w[r], bit c
// being entry (r, c): it swaps the off-diagonal 32×32 blocks, then within
// each the 16×16 blocks, and so on down to single bits.
func transpose64(w *[64]uint64) {
	swap := func(j int, mask uint64) {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			a, b := &w[k&63], &w[(k+j)&63]
			t := (*a>>j ^ *b) & mask
			*a ^= t << j
			*b ^= t
		}
	}
	swap(32, 0x00000000FFFFFFFF)
	swap(16, 0x0000FFFF0000FFFF)
	swap(8, 0x00FF00FF00FF00FF)
	swap(4, 0x0F0F0F0F0F0F0F0F)
	swap(2, 0x3333333333333333)
	swap(1, 0x5555555555555555)
}

// Extension scratch, recycled across extend calls: the κ-column matrices
// and the u-frame, sent or received (colSlab), which each call puts back
// before it returns, and the raw correlations (seedSlab, instSlab), which
// a refill puts back once it has combined them into its stock. Every
// recycled byte is overwritten before it is read.
var (
	colSlab  parallel.Slab[byte]
	seedSlab parallel.Slab[[SeedLen]byte]
	instSlab parallel.Slab[RecvInst]
)

// Extend mints m random 1-of-2 OT correlations on the sender side,
// serially; the endpoint's refills run the same steps over its pool.
// Correlation j's two seeds are entries 2j and 2j+1 of the result, which
// the caller owns.
func (s *ExtSender) Extend(m int) ([][SeedLen]byte, error) { return s.extend(nil, domStock, m) }

// extend is Extend in domain dom, on that domain's counter, with the κ
// column expansions and the ⌈m/64⌉ row blocks spread over pool (nil runs
// them serially); the output is identical at every worker count. The
// result comes from seedSlab, and a caller done with it may put it back.
func (s *ExtSender) extend(pool *parallel.Pool, dom, m int) ([][SeedLen]byte, error) {
	if m <= 0 {
		return nil, fmt.Errorf("ot: extension of %d instances", m)
	}
	if err := checkCounter(s.counter[dom]); err != nil {
		return nil, err
	}
	kappa := len(s.seeds)
	nBytes, rowLen := (m+7)/8, kappa/8
	// The u-frame lands in a recycled buffer when the conn can read it
	// into one (transport.RecvInto); it is read by the column loop alone.
	ubuf := colSlab.Get(kappa * nBytes)
	defer colSlab.Put(ubuf)
	us, err := transport.RecvInto(s.conn, ubuf)
	if err != nil {
		return nil, err
	}
	if len(us) != kappa*nBytes {
		return nil, fmt.Errorf("ot: extension expected %d u-bytes, got %d", kappa*nBytes, len(us))
	}
	// q columns: qᵢ = G(k_{Δᵢ}) ⊕ Δᵢ·uᵢ.
	cols := colSlab.Get(kappa * nBytes)
	defer colSlab.Put(cols)
	iv := columnIV(dom, s.counter[dom])
	pool.Blocks(kappa, func(lo, hi int) {
		h := hashers.Get().(*hasher)
		for i := lo; i < hi; i++ {
			col := cols[i*nBytes : (i+1)*nBytes]
			s.keys[i].expand(col, iv, h.tail())
			if bitOf(s.delta, i) == 1 {
				subtle.XORBytes(col, col, us[i*nBytes:(i+1)*nBytes])
			}
		}
		hashers.Put(h)
	})
	seeds := seedSlab.Get(2 * m)
	pool.Blocks((m+rowBlock-1)/rowBlock, func(lo, hi int) {
		h := hashers.Get().(*hasher)
		for rb := lo; rb < hi; rb++ {
			j0 := rowBlock * rb
			nr := min(rowBlock, m-j0)
			transposeBlock(h.rows[:], cols, m, rb)
			h.rowHashesSend(seeds[2*j0:2*(j0+nr)], h.rows[:nr*rowLen], s.delta, domTag[dom], s.counter[dom], j0)
		}
		hashers.Put(h)
	})
	s.counter[dom]++
	return seeds, nil
}

// Extend mints m random 1-of-2 OT correlations on the receiver side,
// serially; the endpoint's refills run the same steps over its pool. The
// caller owns the result.
func (r *ExtReceiver) Extend(m int) ([]RecvInst, error) { return r.extend(nil, domStock, m) }

// extend is the receiver counterpart of ExtSender.extend; its result
// comes from instSlab.
func (r *ExtReceiver) extend(pool *parallel.Pool, dom, m int) ([]RecvInst, error) {
	if m <= 0 {
		return nil, fmt.Errorf("ot: extension of %d instances", m)
	}
	if err := checkCounter(r.counter[dom]); err != nil {
		return nil, err
	}
	kappa := len(r.pairs)
	nBytes, rowLen := (m+7)/8, kappa/8
	choice := make([]byte, nBytes)
	r.rng.Read(choice)
	// t columns and the u transmission: uᵢ = G(k₀ᵢ) ⊕ G(k₁ᵢ) ⊕ r.
	tCols, us := colSlab.Get(kappa*nBytes), colSlab.Get(kappa*nBytes)
	defer colSlab.Put(tCols)
	iv := columnIV(dom, r.counter[dom])
	pool.Blocks(kappa, func(lo, hi int) {
		h := hashers.Get().(*hasher)
		for i := lo; i < hi; i++ {
			t0, u := tCols[i*nBytes:(i+1)*nBytes], us[i*nBytes:(i+1)*nBytes]
			r.keys[i][0].expand(t0, iv, h.tail())
			r.keys[i][1].expand(u, iv, h.tail())
			subtle.XORBytes(u, u, t0)
			subtle.XORBytes(u, u, choice)
		}
		hashers.Put(h)
	})
	// Send keeps no reference to the frame, so it goes back at once.
	err := r.conn.Send(us)
	colSlab.Put(us)
	if err != nil {
		return nil, err
	}
	out := instSlab.Get(m)
	pool.Blocks((m+rowBlock-1)/rowBlock, func(lo, hi int) {
		h := hashers.Get().(*hasher)
		for rb := lo; rb < hi; rb++ {
			j0 := rowBlock * rb
			nr := min(rowBlock, m-j0)
			for j := j0; j < j0+nr; j++ {
				out[j].Choice = int(bitOf(choice, j))
			}
			transposeBlock(h.rows[:], tCols, m, rb)
			h.rowHashesRecv(out[j0:j0+nr], h.rows[:nr*rowLen], domTag[dom], r.counter[dom], j0)
		}
		hashers.Put(h)
	})
	r.counter[dom]++
	return out, nil
}
