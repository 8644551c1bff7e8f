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
// weight mask B (NewGilboaFamily), so the cross term A_p⊗B_q can take
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
// session seeds: each Next draws a fresh A and exchanges one correction
// frame each way over EP.Conn, with no OT. Seq keys the pads, so a family
// serves one seq.
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

// Next implements Family: it builds one fresh m-row triple, ahead of
// demand or inline (see GilboaFamily.Next). A is the first draw of Rng, as
// in Gilboa generation, and the shares depend only on A, B, the seeds and
// Seq.
func (f *FixedFamily) Next(m int) (*Mat, error) {
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
	p := s.plan(m)
	at := fixedSlab.Get(k * p.words)
	defer fixedSlab.Put(at)
	p.pack(at, aShare, k)
	zt := fixedSlab.Get(n * p.words)
	defer fixedSlab.Put(zt)
	clear(zt)
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
			v := zi[j]
			for c := range p.cls {
				v += p.cls[c].elem(zt[j*p.words:], i)
			}
			zi[j] = v & r.Mask
		}
	}
	return z, nil
}

// Lanes. Bit t's elements have ℓ−t bits in w[t] bytes, and an element
// enters Z as g·2^t mod 2^ℓ. Elements of one or two bytes are processed
// eight or four to a uint64, each in a lane of its own width, with
// lane-local add and sub that never carry into the next lane. Their
// contribution fits that lane once the shift s = max(0, ℓ − lane width)
// is taken out: ℓ−t ≤ lane width, so t ≥ s and g·2^(t−s) < 2^(ℓ−s), and
// Z's bits from s up are the lane's mod 2^(lane width). Wider elements
// (3 to 8 bytes, carriers over 16 bits only) keep a uint64 each.
//
// Each width class keeps its own words of a row of m elements: the
// cross-term accumulator has one row per column j, and A, packed once per
// generation, one per kk. A lane holds A mod 2^(lane width), which is all
// a correction mod 2^(ℓ−t) reads of it.

// laneClass is the layout of one width class in a row: its words words
// start at word off, and each holds lanes elements of bits bits, which
// stand for Z's bits from shift up. ones has the lowest bit of every lane
// set.
type laneClass struct {
	off, words, lanes int
	bits, shift       uint
	ones              uint64
}

// classOf is the class of w-byte elements: bytes, 16-bit lanes, or one
// element per word.
func classOf(w int) int {
	if w <= 2 {
		return w
	}
	return 0
}

// laneBits is each class's lane width.
var laneBits = [3]uint{64, 8, 16}

// elem is element i of the class in row, as its contribution to Z: the
// lane shifted up by the class's shift. A class that is absent has no
// lanes and contributes 0.
func (c *laneClass) elem(row []uint64, i int) uint64 {
	if c.lanes == 0 {
		return 0
	}
	//lint:allow ringmask one lane of a packed row, placed at its bits of Z; the caller reduces the sum
	return row[c.off+i/c.lanes] >> (c.bits * uint(i%c.lanes)) & (^uint64(0) >> (64 - c.bits)) << c.shift
}

// laneAdd and laneSub add and subtract x and y lane by lane, each lane mod
// 2^(lane width): h holds the top bit of every lane, and no carry or
// borrow crosses into the next lane (the SWAR forms of Hacker's Delight,
// 2-18).
func laneAdd(x, y, h uint64) uint64 {
	//lint:allow ringmask lane-local add, each lane mod its width; callers mask the lanes they keep
	return ((x &^ h) + (y &^ h)) ^ ((x ^ y) & h)
}

func laneSub(x, y, h uint64) uint64 {
	//lint:allow ringmask lane-local sub, each lane mod its width; callers mask the lanes they keep
	return ((x | h) - (y &^ h)) ^ ((x ^ ^y) & h)
}

// fixedPlan is the layout of one m-row triple of a layer. Bit t's
// correction needs only its ℓ−t low bits, since it lands in Z times 2^t:
// its elements take w[t] bytes, reduced by mask[t], and start at byte
// fo[t] of a (kk, j) row of row bytes; each of its expansions takes nb[t]
// hash blocks. A lane or accumulator row is words uint64s, the classes
// side by side; zmask is the ring's mask.
type fixedPlan struct {
	bits, m, row, words int
	w, fo, nb           [64]int
	mask                [64]uint64
	zmask               uint64
	cls                 [3]laneClass
}

func (s *FixedSeeds) plan(m int) *fixedPlan {
	p := &fixedPlan{bits: int(s.R.Bits), m: m, zmask: s.R.Mask}
	for t := range p.bits {
		r := ring.New(uint(p.bits - t))
		p.w[t], p.mask[t] = r.Bytes(), r.Mask
		p.fo[t] = p.row
		p.row += m * p.w[t]
		p.nb[t] = (m*p.w[t] + aes.BlockSize - 1) / aes.BlockSize
		ci := classOf(p.w[t])
		if c := &p.cls[ci]; c.lanes == 0 {
			c.bits = laneBits[ci]
			c.lanes = 64 / int(c.bits)
			c.words = (m + c.lanes - 1) / c.lanes
			c.shift = uint(max(0, p.bits-int(c.bits)))
			c.ones = ^uint64(0) / (^uint64(0) >> (64 - c.bits))
		}
	}
	for i := range p.cls {
		if c := &p.cls[i]; c.lanes != 0 {
			c.off = p.words
			p.words += c.words
		}
	}
	return p
}

// lanes is bit t's class and its lane constants: each lane's top bit h,
// bit t's mask in every lane lm, and the shift sh of its contributions
// inside their lanes.
func (p *fixedPlan) lanes(t int) (c *laneClass, h, lm uint64, sh uint) {
	c = &p.cls[classOf(p.w[t])]
	//lint:allow ringmask lane constants, not ring values: each lane's top bit, and bit t's mask in every lane
	return c, c.ones << (c.bits - 1), p.mask[t] * c.ones, uint(t) - c.shift
}

// of is the class's words of a lane or accumulator row.
func (c *laneClass) of(row []uint64) []uint64 { return row[c.off : c.off+c.words] }

// pack sets the K rows of at to the columns of the m×K matrix a, each in
// every class's lanes.
func (p *fixedPlan) pack(at, a []uint64, k int) {
	for kk := range k {
		row := at[kk*p.words : (kk+1)*p.words]
		clear(row)
		for ci := range p.cls {
			c := &p.cls[ci]
			if c.lanes == 0 {
				continue
			}
			lm := ^uint64(0) >> (64 - c.bits)
			for i := range p.m {
				//lint:allow ringmask lane packing: A mod 2^(lane width), shifted into its lane
				row[c.off+i/c.lanes] |= a[i*k+kk] & lm << (c.bits * uint(i%c.lanes))
			}
		}
	}
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

// fixedSlab recycles fixedZ's packed A and cross-term accumulators.
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
// to its place in frame and subtracts 2^t·G(k⁰) from column j of zt (N
// accumulator rows, reduced by the caller). at is A packed (pack).
func (s *FixedSeeds) correctCols(sc *expandScratch, p *fixedPlan, frame []byte, zt, at []uint64, seq uint32, lo, hi int) {
	const blk = aes.BlockSize
	m, bits := p.m, p.bits
	for j := lo; j < hi; j++ {
		ztj := zt[j*p.words : (j+1)*p.words]
		for kk := range s.K {
			idx := kk*s.N + j
			px := s.send[2*idx*bits*blk : 2*(idx+1)*bits*blk]
			ak := at[kk*p.words : (kk+1)*p.words]
			row := frame[idx*p.row : (idx+1)*p.row]
			for t0 := 0; t0 < bits; {
				t1, ex := p.run(t0), p.nb[t0]*blk
				ot.Expand(sc.g[:2*(t1-t0)*ex], px[2*t0*blk:2*t1*blk], uint64(seq), p.nb[t0])
				for t := t0; t < t1; t++ {
					e := sc.g[2*(t-t0)*ex:]
					p.correctRow(row[p.fo[t]:p.fo[t]+m*p.w[t]], e[:ex], e[ex:2*ex], ztj, ak, t)
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
		ztj := zt[j*p.words : (j+1)*p.words]
		for kk := range s.K {
			idx := kk*s.N + j
			px := s.recv[idx*bits*blk : (idx+1)*bits*blk]
			row := frame[idx*p.row : (idx+1)*p.row]
			b := s.BShare[idx]
			for t0 := 0; t0 < bits; {
				t1, ex := p.run(t0), p.nb[t0]*blk
				ot.Expand(sc.g[:(t1-t0)*ex], px[t0*blk:t1*blk], uint64(seq), p.nb[t0])
				for t := t0; t < t1; t++ {
					e := sc.g[(t-t0)*ex:]
					p.absorbRow(ztj, e[:ex], row[p.fo[t]:p.fo[t]+m*p.w[t]], t, b>>t&1)
				}
				t0 = t1
			}
		}
	}
}

// correctRow is one (kk, j, t) of the sender: it sets u to the elements
// g0 − g1 + a, reduced by bit t's mask, and subtracts g0·2^t from the
// accumulator row z, for the m elements of the expansions e0 and e1 (read
// from their start, reduced by the mask) and of the packed A row a.
func (p *fixedPlan) correctRow(u, e0, e1 []byte, z, a []uint64, t int) {
	c, h, lm, sh := p.lanes(t)
	zc, ac := c.of(z), c.of(a)
	if c.lanes == 1 {
		w, mask := p.w[t], p.mask[t]
		for i := range zc {
			g0, g1 := loadElem(e0[w*i:], w, mask), loadElem(e1[w*i:], w, mask)
			zc[i] -= g0 << t & p.zmask
			v := (g0 - g1 + ac[i]) & mask
			for b := range w {
				u[w*i+b] = byte(v >> (8 * b))
			}
		}
		return
	}
	n := len(u) / 8
	correctLanes(u[:8*n], e0[:8*n], e1[:8*n], zc[:n], ac[:n], h, lm, sh)
	if n < len(zc) {
		var tail [8]byte
		correctLanes(tail[:], e0[8*n:8*n+8], e1[8*n:8*n+8], zc[n:], ac[n:], h, lm, sh)
		copy(u[8*n:], tail[:])
	}
}

// correctLanes is correctRow over whole words: u, e0 and e1 hold 8 bytes
// per word of z.
func correctLanes(u, e0, e1 []byte, z, a []uint64, h, lm uint64, sh uint) {
	le := binary.LittleEndian
	z, a = z[:len(u)/8], a[:len(u)/8]
	e0, e1 = e0[:len(u)], e1[:len(u)]
	for q := range z {
		g0, g1 := le.Uint64(e0[8*q:8*q+8])&lm, le.Uint64(e1[8*q:8*q+8])&lm
		le.PutUint64(u[8*q:8*q+8], laneAdd(laneSub(g0, g1, h), a[q], h)&lm)
		//lint:allow ringmask g0 < 2^(ℓ−t), so g0·2^(t−s) fits its lane; the merge reduces the accumulator
		z[q] = laneSub(z[q], g0<<(sh&63), h)
	}
}

// absorbRow is one (kk, j, t) of the receiver: it adds
// (g + b·u mod 2^(ℓ−t))·2^t to the accumulator row z, in one pass over the
// m elements of the expansion e and of the peer's correction u.
func (p *fixedPlan) absorbRow(z []uint64, e, u []byte, t int, b uint64) {
	c, h, lm, sh := p.lanes(t)
	zc, bm := c.of(z), -b
	if c.lanes == 1 {
		w, mask := p.w[t], p.mask[t]
		for i := range zc {
			zc[i] += (loadElem(e[w*i:], w, mask) + loadElem(u[w*i:], w, mask)&bm) << t & p.zmask
		}
		return
	}
	n := len(u) / 8
	absorbLanes(zc[:n], e[:8*n], u[:8*n], h, lm, bm, sh)
	if n < len(zc) {
		var tail [8]byte
		copy(tail[:], u[8*n:])
		absorbLanes(zc[n:], e[8*n:8*n+8], tail[:], h, lm, bm, sh)
	}
}

// absorbLanes is absorbRow over whole words: e and u hold 8 bytes per
// word of z, and bm is b's mask, all ones or zero.
func absorbLanes(z []uint64, e, u []byte, h, lm, bm uint64, sh uint) {
	le := binary.LittleEndian
	z, e = z[:len(u)/8], e[:len(u)]
	for q := range z {
		v := laneAdd(le.Uint64(e[8*q:8*q+8]), le.Uint64(u[8*q:8*q+8])&bm, h) & lm
		//lint:allow ringmask v < 2^(ℓ−t), so v·2^(t−s) fits its lane; the merge reduces the accumulator
		z[q] = laneAdd(z[q], v<<(sh&63), h)
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
