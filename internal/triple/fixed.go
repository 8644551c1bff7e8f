package triple

import (
	"crypto/aes"
	"encoding/binary"
	"fmt"
	"sync"

	"aq2pnn/internal/ot"
	"aq2pnn/internal/parallel"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/tensor"
	"aq2pnn/internal/transport"
)

// Gilboa with session-fixed choice bits. A session fixes each layer's
// weight mask B (NewGilboaFamilyFixed), so the cross term A_p⊗B_q can take
// its OT choice bits from B instead of A: column j of the product gains,
// for every kk and bit t, b_t·2^t·A[:, kk], with b_t bit t of B_q[kk, j]
// and an M-element message. Those choices never change within a session,
// so the OTs run once (SetupFixed) and every later triple runs none:
//
//   - Set-up, once per session stream: one chosen-message 1-of-2 OT per
//     (kk, j, t). The A-holder p sends a seed pair (k⁰, k¹), and the
//     B-holder q chooses with b_t and keeps k^b.
//   - Per triple of seq: p sends one M-element correction
//     u = G(k⁰, seq) − G(k¹, seq) + A_p[:, kk] per (kk, j, t) and adds
//     −2^t·G(k⁰, seq) to Z_p[:, j]; q adds 2^t·(G(k^b, seq) + b_t·u) to
//     Z_q[:, j]. The two sum to b_t·2^t·A_p[:, kk]. Everything of bit t is
//     taken mod 2^(ℓ−t), since it lands in Z times 2^t: its correction
//     elements travel in the bytes of ℓ−t bits, 1.5 bytes per element on
//     average at ℓ = 16 where Gilboa's messages take 2.
//
// G is ot.Expand, the OT plane's fixed-key hash keyed by the seed with
// (seq, block) in the tweak. u hides A_p behind G(k^{1−b}, seq), which q
// never holds, and p receives nothing but q's corrections for the other
// cross term. A seed masks a fresh pad at every seq, and a rebuild of the
// same seq — the fill plane's kit or a cold inference — recomputes the
// same bytes from the same A, so no pad ever masks two values.
//
// The orientation is picked per layer from public shapes (FixedChoice): the
// set-up costs K·N·ℓ OTs once, and plain Gilboa costs M·K·ℓ per triple.

// FixedChoice reports whether an M×K by K×N family runs with fixed choice
// bits: iff N < M, the convolutions of Micro and LeNet5. Both parties
// decide from the public shape alone.
func FixedChoice(m, n int) bool { return n < m }

// FixedLayer is one fixed-choice layer of a session set-up: its ring,
// dimensions and this party's share of the fixed weight mask (K×N).
type FixedLayer struct {
	R      ring.Ring
	K, N   int
	BShare []uint64
}

func (l FixedLayer) ots() int { return l.K * l.N * int(l.R.Bits) }

// FixedSeeds is one party's seeds for one fixed-choice layer, stored as
// π(k) (ot.PermuteSeeds): G needs only π(k), so the set-up pays that half
// of the hash once. send holds π(k⁰), π(k¹) of every (kk, j, t) for the
// cross term this party's A enters; recv holds π(k^b) for the one its B
// enters. Both are (kk, j, t)-major, the order of the B share's bits.
type FixedSeeds struct {
	FixedLayer
	send, recv []byte
}

// SetupFixed runs the seed OTs of every layer in one batch per direction
// over ep and returns each layer's seeds. rng draws this party's seed
// pairs in (layer, kk, j, t) order, k⁰ then k¹; a caller that seeds it
// from the session (not the stream) makes every re-run deliver the same
// seeds, which warm ≡ cold rests on. Party 0 receives first. The set-up
// runs under a triple.gilboa span of ep's trace and is counted in
// aq2pnn_triple_fixed_setups_total.
func SetupFixed(ep *ot.Endpoint, rng *prg.PRG, party int, layers []FixedLayer) ([]*FixedSeeds, error) {
	sp := ep.Trace.Enter("triple.gilboa", telemetry.WithAttrs(telemetry.Int("layers", int64(len(layers)))))
	defer ep.Trace.Exit(sp)
	telemetry.Count("aq2pnn_triple_fixed_setups_total", 1)
	total := 0
	for _, l := range layers {
		if l.K <= 0 || l.N <= 0 || len(l.BShare) != l.K*l.N {
			return nil, fmt.Errorf("triple: fixed-choice layer %dx%d with a %d-element B share", l.K, l.N, len(l.BShare))
		}
		total += l.ots()
	}
	const blk = aes.BlockSize
	cands := make([]byte, 2*total*blk)
	if _, err := rng.Read(cands); err != nil {
		return nil, err
	}
	send := make([]byte, len(cands))
	ot.PermuteSeeds(send, cands)
	choices := make([]int, 0, total)
	for _, l := range layers {
		for _, b := range l.BShare {
			for t := range l.R.Bits {
				choices = append(choices, int(b>>t&1))
			}
		}
	}
	var recv []byte
	recvF := func() (err error) {
		if recv, err = ep.Recv1ofN(2, choices, blk); err == nil {
			ot.PermuteSeeds(recv, recv)
		}
		return err
	}
	sendF := func() error { return ep.Send1ofN(2, blk, cands) }
	first, second := recvF, sendF
	if party != 0 {
		first, second = sendF, recvF
	}
	if err := first(); err != nil {
		return nil, err
	}
	if err := second(); err != nil {
		return nil, err
	}
	out := make([]*FixedSeeds, len(layers))
	off := 0
	for i, l := range layers {
		n := l.ots()
		out[i] = &FixedSeeds{FixedLayer: l, send: send[2*off*blk : 2*(off+n)*blk], recv: recv[off*blk : (off+n)*blk]}
		off += n
	}
	return out, nil
}

// FrameError reports a peer's correction frame whose length does not match
// the public layer shape. It is checked before the frame is read.
type FrameError struct {
	Got, Want int
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("triple: fixed-choice correction frame of %d bytes, want %d", e.Got, e.Want)
}

// FixedFamily generates a fixed-choice layer's family triples from its
// session seeds: each Generate draws a fresh A and exchanges one
// correction frame each way over EP.Conn, with no OT. Seq keys the pads,
// so a family serves one seq.
type FixedFamily struct {
	EP    *ot.Endpoint
	Rng   *prg.PRG
	Party int
	Seeds *FixedSeeds
	Seq   uint32
	// Pool, when non-nil, spreads the local product and the expansions
	// over its workers (bit-identical at any worker count).
	Pool *parallel.Pool
}

// BShare implements Family.
func (f *FixedFamily) BShare() []uint64 { return f.Seeds.BShare }

// Next implements Family: an inline (consumption-counted) generation.
func (f *FixedFamily) Next(m int) (*Mat, error) {
	if m <= 0 {
		return nil, fmt.Errorf("triple: non-positive row count %d", m)
	}
	countConsumed(m, f.Seeds.K, f.Seeds.N)
	return f.Generate(m)
}

// Generate builds one fresh m-row triple without recording consumption
// (see GilboaFamily.Generate). A is the first draw of Rng, as in Gilboa
// generation, and the shares depend only on A, B, the seeds and Seq.
func (f *FixedFamily) Generate(m int) (*Mat, error) {
	if m <= 0 {
		return nil, fmt.Errorf("triple: non-positive row count %d", m)
	}
	s := f.Seeds
	sp := f.EP.Trace.Enter("triple.gilboa", telemetry.WithAttrs(
		telemetry.Int("m", int64(m)), telemetry.Int("k", int64(s.K)),
		telemetry.Int("n", int64(s.N)), telemetry.Int("bits", int64(s.R.Bits))))
	defer f.EP.Trace.Exit(sp)
	t := &Mat{R: s.R, M: m, K: s.K, N: s.N, B: s.BShare}
	t.A = f.Rng.Elems(m*s.K, s.R)
	var err error
	t.Z, err = fixedZ(f.EP.Conn, f.Pool, s, f.Party, f.Seq, m, t.A)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// fixedZ computes this party's Z share: the local A_p⊗B_p, this party's
// sender half of the cross term its A enters, and its receiver half of the
// other, from the peer's corrections. Both parties build their frame
// before the exchange (party 0 sends first), so the two builds overlap.
func fixedZ(conn transport.Conn, pool *parallel.Pool, s *FixedSeeds, party int, seq uint32, m int, aShare []uint64) ([]uint64, error) {
	r, k, n := s.R, s.K, s.N
	z := make([]uint64, m*n)
	tensor.MatMulModParInto(pool, z, aShare, s.BShare, m, k, n, r.Mask)
	at := fixedSlab.Get(k * m)
	defer fixedSlab.Put(at)
	for i := range m {
		for kk := range k {
			at[kk*m+i] = aShare[i*k+kk]
		}
	}
	zt := fixedSlab.Get(n * m)
	defer fixedSlab.Put(zt)
	clear(zt)
	p := s.plan(m)
	frame := make([]byte, k*n*p.row)
	pool.Blocks(n, func(lo, hi int) {
		sc := s.scratch(p)
		s.correctCols(sc, p, frame, zt, at, seq, lo, hi)
		fixedScratch.Put(sc)
	})
	var peer []byte
	var err error
	if party == 0 {
		if err = conn.Send(frame); err == nil {
			peer, err = conn.Recv()
		}
	} else if peer, err = conn.Recv(); err == nil {
		err = conn.Send(frame)
	}
	if err != nil {
		return nil, err
	}
	if err := s.checkFrame(peer, m); err != nil {
		return nil, err
	}
	pool.Blocks(n, func(lo, hi int) {
		sc := s.scratch(p)
		s.absorbCols(sc, p, zt, peer, seq, lo, hi)
		fixedScratch.Put(sc)
	})
	for i := range m {
		zi := z[i*n : (i+1)*n]
		for j := range zi {
			zi[j] = (zi[j] + zt[j*m+i]) & r.Mask
		}
	}
	return z, nil
}

// fixedPlan is the layout of one m-row triple of a layer. Bit t's
// correction needs only its ℓ−t low bits, since it lands in Z times 2^t:
// its elements take w[t] bytes, reduced by mask[t], and start at byte
// fo[t] of a (kk, j) row of row bytes; each of its expansions takes nb[t]
// hash blocks.
type fixedPlan struct {
	bits, m, row int
	w, fo, nb    [64]int
	mask         [64]uint64
}

func (s *FixedSeeds) plan(m int) *fixedPlan {
	p := &fixedPlan{bits: int(s.R.Bits), m: m}
	for t := range p.bits {
		r := ring.New(uint(p.bits - t))
		p.w[t], p.mask[t] = r.Bytes(), r.Mask
		p.fo[t] = p.row
		p.row += m * p.w[t]
		p.nb[t] = (m*p.w[t] + aes.BlockSize - 1) / aes.BlockSize
	}
	return p
}

// run returns the end of the run of bits from t0 on whose elements share
// t0's width, so that one Expand call covers their seeds.
func (p *fixedPlan) run(t0 int) int {
	t1 := t0 + 1
	for t1 < p.bits && p.w[t1] == p.w[t0] {
		t1++
	}
	return t1
}

// frameLen is the byte length of one m-row correction frame: one row per
// (kk, j).
func (s *FixedSeeds) frameLen(m int) int { return s.K * s.N * s.plan(m).row }

// checkFrame checks a peer's correction frame against the public shape
// before anything reads it.
func (s *FixedSeeds) checkFrame(p []byte, m int) error {
	if want := s.frameLen(m); len(p) != want {
		return &FrameError{Got: len(p), Want: want}
	}
	return nil
}

// fixedSlab recycles fixedZ's transposed A and cross-term accumulators.
var fixedSlab parallel.Slab[uint64]

// expandScratch is one pool chunk's staging: the expansions of one
// (kk, j)'s seeds of one width.
type expandScratch struct{ g []byte }

var fixedScratch = sync.Pool{New: func() any { return new(expandScratch) }}

// scratch takes a staging area sized for p: room for the 2ℓ expansions of
// one (kk, j) on the sender side, at the widest width.
func (s *FixedSeeds) scratch(p *fixedPlan) *expandScratch {
	sc := fixedScratch.Get().(*expandScratch)
	if g := 2 * p.bits * p.nb[0] * aes.BlockSize; cap(sc.g) < g {
		sc.g = make([]byte, g)
	}
	return sc
}

// correctCols is the sender half for the columns j in [lo, hi): it writes
// each (kk, j, t)'s correction u = G(k⁰) − G(k¹) + A[:, kk] mod 2^(ℓ−t)
// to its place in frame and subtracts 2^t·G(k⁰) from column j of zt (N×m,
// the transposed cross term, reduced by the caller). at is A transposed
// (K×m).
func (s *FixedSeeds) correctCols(sc *expandScratch, p *fixedPlan, frame []byte, zt, at []uint64, seq uint32, lo, hi int) {
	const blk = aes.BlockSize
	m, bits := p.m, p.bits
	for j := lo; j < hi; j++ {
		ztj := zt[j*m : (j+1)*m]
		for kk := range s.K {
			idx := kk*s.N + j
			px := s.send[2*idx*bits*blk : 2*(idx+1)*bits*blk]
			ak := at[kk*m : (kk+1)*m]
			row := frame[idx*p.row : (idx+1)*p.row]
			for t0 := 0; t0 < bits; {
				t1, ex := p.run(t0), p.nb[t0]*blk
				ot.Expand(sc.g[:2*(t1-t0)*ex], px[2*t0*blk:2*t1*blk], uint64(seq), p.nb[t0])
				for t := t0; t < t1; t++ {
					e := sc.g[2*(t-t0)*ex:]
					correctRow(row[p.fo[t]:p.fo[t]+m*p.w[t]], e, e[ex:], ztj, ak, uint(t), p.w[t], p.mask[t], s.R.Mask)
				}
				t0 = t1
			}
		}
	}
}

// absorbCols is the receiver half for the columns j in [lo, hi): it adds
// 2^t·(G(k^b) + b·u) of every (kk, j, t) to column j of zt, u read from
// the peer's frame (checked by checkFrame).
func (s *FixedSeeds) absorbCols(sc *expandScratch, p *fixedPlan, zt []uint64, frame []byte, seq uint32, lo, hi int) {
	const blk = aes.BlockSize
	m, bits := p.m, p.bits
	for j := lo; j < hi; j++ {
		ztj := zt[j*m : (j+1)*m]
		for kk := range s.K {
			idx := kk*s.N + j
			px := s.recv[idx*bits*blk : (idx+1)*bits*blk]
			row := frame[idx*p.row : (idx+1)*p.row]
			b := s.BShare[idx]
			for t0 := 0; t0 < bits; {
				t1, ex := p.run(t0), p.nb[t0]*blk
				ot.Expand(sc.g[:(t1-t0)*ex], px[t0*blk:t1*blk], uint64(seq), p.nb[t0])
				for t := t0; t < t1; t++ {
					addRow(ztj, sc.g[(t-t0)*ex:], uint(t), p.w[t], p.mask[t], s.R.Mask)
					if b>>t&1 == 1 {
						addRow(ztj, row[p.fo[t]:], uint(t), p.w[t], p.mask[t], s.R.Mask)
					}
				}
				t0 = t1
			}
		}
	}
}

// correctRow sets u to the w-byte elements g0 − g1 + a, reduced by mask,
// and subtracts g0·2^t, reduced by zmask, from z, for the len(z) elements
// of the expansions e0 and e1 (read from their start, reduced by mask). z
// itself stays unreduced: ring addition mod 2^64 agrees with it mod 2^ℓ.
func correctRow(u, e0, e1 []byte, z, a []uint64, t uint, w int, mask, zmask uint64) {
	le := binary.LittleEndian
	m := len(z)
	e0, e1, a, u = e0[:m*w], e1[:m*w], a[:m], u[:m*w]
	switch w {
	case 1:
		for i := range z {
			g0, g1 := uint64(e0[i])&mask, uint64(e1[i])&mask
			z[i] -= g0 << t & zmask
			u[i] = byte((g0 - g1 + a[i]) & mask)
		}
	case 2:
		for i := range z {
			g0, g1 := uint64(le.Uint16(e0[2*i:]))&mask, uint64(le.Uint16(e1[2*i:]))&mask
			z[i] -= g0 << t & zmask
			le.PutUint16(u[2*i:], uint16((g0-g1+a[i])&mask))
		}
	default:
		for i := range z {
			g0, g1 := loadElem(e0[w*i:], w, mask), loadElem(e1[w*i:], w, mask)
			z[i] -= g0 << t & zmask
			v := (g0 - g1 + a[i]) & mask
			for b := range w {
				u[w*i+b] = byte(v >> (8 * b))
			}
		}
	}
}

// addRow adds 2^t times each of the len(z) w-byte elements at the start
// of p, reduced by mask, then by zmask, to z, itself unreduced.
func addRow(z []uint64, p []byte, t uint, w int, mask, zmask uint64) {
	le := binary.LittleEndian
	p = p[:len(z)*w]
	switch w {
	case 1:
		for i := range z {
			z[i] += (uint64(p[i]) & mask) << t & zmask
		}
	case 2:
		for i := range z {
			z[i] += (uint64(le.Uint16(p[2*i:])) & mask) << t & zmask
		}
	default:
		for i := range z {
			z[i] += loadElem(p[w*i:], w, mask) << t & zmask
		}
	}
}

// loadElem reads one little-endian element of w bytes, reduced by mask.
func loadElem(p []byte, w int, mask uint64) uint64 {
	var x uint64
	for b := range w {
		//lint:allow ringmask byte assembly of one w-byte element, reduced by mask on return
		x |= uint64(p[b]) << (8 * b)
	}
	return x & mask
}
