package ot

import (
	"crypto/aes"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"sync"
)

// One AES-128 permutation π under a public, fixed key (perm.go) derives
// the OT plane's IKNP row hashes, 1-of-2^t combiners and message pads. A
// use costs block encryptions only, with no key schedule per seed.
//
// The hash is the tweakable circular-correlation-robust hash of Guo, Katz,
// Wang and Yu, "Efficient and Secure Multiparty Computation from Fixed-Key
// Block Ciphers" (IEEE S&P 2020), at κ = 128, one block:
//
//	H(x, i) = π(π(x) ⊕ i) ⊕ π(x)
//
// Every use puts its own domain tag in the tweak i (see putTweak). Base OTs
// (padFromKey) and the IKNP column expansion stay keyed PRGs: the column
// expansion is AES-128-CTR under each base-OT seed, keyed once per plane
// (colKey, perm.go).
//
// Every use of π is batched: it stages up to hashBatch inputs and tweaks
// in a hasher, and runs π, XOR-tweak, π, XOR over the whole batch, so that
// the kernel behind permuteBlocks pipelines many blocks per call.

// Domain tags, the top byte of every tweak: no two uses of H share one.
const (
	tagRow  = 1 // IKNP row hash of a stock refill: ⟨tagRow, counter, j⟩
	tagComb = 2 // 1-of-2^t combiner: ⟨tagComb, candidate c, component b⟩
	tagPad  = 3 // block b of a pad longer than one block: ⟨tagPad, b, 0⟩
	tagBase = 4 // IKNP row hash of a base mint: ⟨tagBase, counter, j⟩
	tagSeq  = 5 // block b of a session seed's expansion for seq: ⟨tagSeq, seq, b⟩
)

// putTweak packs ⟨tag, a, b⟩ into the block tw, little-endian: a in bytes
// 0–7, b in bytes 8–14, tag in byte 15. Every caller's b is below 2^56 (a
// row index, a component number or zero), so the packing is injective.
func putTweak(tw *[aes.BlockSize]byte, tag byte, a, b uint64) {
	binary.LittleEndian.PutUint64(tw[:8], a)
	binary.LittleEndian.PutUint64(tw[8:], b)
	tw[15] = tag
}

// xorBlock XORs the block x into d.
func xorBlock(d, x *[aes.BlockSize]byte) {
	le := binary.LittleEndian
	le.PutUint64(d[:8], le.Uint64(d[:8])^le.Uint64(x[:8]))
	le.PutUint64(d[8:], le.Uint64(d[8:])^le.Uint64(x[8:]))
}

// hashBatch is the number of blocks a hasher stages for one batch.
const hashBatch = 64

// hasher is the staging area of a batch: π(x) of each input in px, its
// tweak and then its hash in out, a combiner's permuted component seeds in
// pre, and one 64-row block of the IKNP matrix, transposed, in rows. A
// hasher belongs to one goroutine at a time.
type hasher struct {
	px   [hashBatch * aes.BlockSize]byte
	out  [hashBatch * aes.BlockSize]byte
	pre  [hashBatch * aes.BlockSize]byte
	rows [rowBlock * ExtKappa / 8]byte
}

// hashers recycles staging areas: each pool chunk takes one hasher for all
// its batches and puts it back, so staging is not allocated per call.
var hashers = sync.Pool{New: func() any { return new(hasher) }}

// tail is the scratch block of a column expansion's partial last block
// (colKey.expand). It lives in the hasher, so it is on the heap already.
func (h *hasher) tail() *[aes.BlockSize]byte { return at(h.px[:], 0) }

// at is block i of s.
func at(s []byte, i int) *[aes.BlockSize]byte { return (*[aes.BlockSize]byte)(s[i*aes.BlockSize:]) }

// hash turns the first m staged tweaks into hashes: block i of out becomes
// H(x_i, out_i) = π(π(x_i) ⊕ out_i) ⊕ π(x_i), where block i of px holds
// π(x_i).
func (h *hasher) hash(m int) {
	px, out := h.px[:m*aes.BlockSize], h.out[:m*aes.BlockSize]
	subtle.XORBytes(out, out, px)
	permuteBlocks(out, out)
	subtle.XORBytes(out, out, px)
}

// rowHashesSend derives the sender's two random-OT seeds of each IKNP row,
// H(q_j, ⟨tag, counter, j⟩) and H(q_j ⊕ Δ, ⟨tag, counter, j⟩), into
// seeds[2j] and seeds[2j+1], for the rows q_j = rows[16j : 16j+16] and j
// counted from j0. The tag (tagRow or tagBase) and the counter keep every
// extend call on distinct tweaks.
func (h *hasher) rowHashesSend(seeds [][SeedLen]byte, rows, delta []byte, tag byte, counter uint64, j0 int) {
	const perBatch = hashBatch / 2
	d := (*[SeedLen]byte)(delta)
	for lo := 0; lo*SeedLen < len(rows); lo += perBatch {
		n := min(perBatch, len(rows)/SeedLen-lo)
		for i := range n {
			q0, q1 := at(h.px[:], 2*i), at(h.px[:], 2*i+1)
			*q0 = *at(rows, lo+i)
			*q1 = *q0
			xorBlock(q1, d)
			j := uint64(j0 + lo + i)
			putTweak(at(h.out[:], 2*i), tag, counter, j)
			putTweak(at(h.out[:], 2*i+1), tag, counter, j)
		}
		permuteBlocks(h.px[:2*n*aes.BlockSize], h.px[:2*n*aes.BlockSize])
		h.hash(2 * n)
		for i := range 2 * n {
			seeds[2*lo+i] = *at(h.out[:], i)
		}
	}
}

// rowHashesRecv is the receiver counterpart of rowHashesSend: out[j].Seed
// becomes H(t_j, ⟨tag, counter, j0+j⟩) for the rows t_j of rows.
func (h *hasher) rowHashesRecv(out []RecvInst, rows []byte, tag byte, counter uint64, j0 int) {
	for lo := 0; lo < len(out); lo += hashBatch {
		n := min(hashBatch, len(out)-lo)
		permuteBlocks(h.px[:n*aes.BlockSize], rows[lo*SeedLen:(lo+n)*SeedLen])
		for i := range n {
			putTweak(at(h.out[:], i), tag, counter, uint64(j0+lo+i))
		}
		h.hash(n)
		for i := range n {
			out[lo+i].Seed = *at(h.out[:], i)
		}
	}
}

// combineSend fuses random 1-of-2 correlations, t = log2(n) ≤ 8 per
// instance, into 1-of-n correlations (Naor and Pinkas, STOC 1999): raw
// holds two seeds per 1-of-2 correlation, and instance k takes the t
// correlations raw[2k·t : 2(k+1)·t] and writes its n candidate seeds to
// dst[k·n : (k+1)·n]. Candidate c's seed is ⊕_b H(s_{b,c_b}, ⟨tagComb, c,
// b⟩), with π applied once per component seed. The tweak must carry c.
// Without it the pads of candidates 01, 10 and 11 XOR to the pad of 00, and
// a receiver holding one candidate learns a message XOR.
//
// Instances go in groups whose 2t component seeds per instance fill pre at
// most, so that even t = 1 hands π whole batches.
func (h *hasher) combineSend(dst, raw [][SeedLen]byte, t int) {
	n := 1 << t
	group := max(1, hashBatch/(2*t))
	for k0 := 0; 2*k0*t < len(raw); k0 += group {
		grp := raw[2*k0*t : min(len(raw), 2*(k0+group)*t)]
		for i, s := range grp {
			*at(h.pre[:], i) = s
		}
		pre := h.pre[:len(grp)*aes.BlockSize]
		permuteBlocks(pre, pre)
		seeds := dst[k0*n : (k0+len(grp)/(2*t))*n]
		clear(seeds)
		// Stage one hash per (candidate, component) in order; after each
		// batch, fold every hash into its candidate from candidate first,
		// component firstB on.
		m, first, firstB := 0, 0, 0
		for kc := range seeds {
			k, c := kc>>t, kc&(n-1)
			for b := range t {
				*at(h.px[:], m) = *at(pre, 2*(k*t+b)+(c>>b)&1)
				putTweak(at(h.out[:], m), tagComb, uint64(c), uint64(b))
				if m++; m == hashBatch || (kc == len(seeds)-1 && b == t-1) {
					h.hash(m)
					for i := range m {
						xorBlock(&seeds[first], at(h.out[:], i))
						if firstB++; firstB == t {
							first, firstB = first+1, 0
						}
					}
					m = 0
				}
			}
		}
	}
}

// combineRecv is the receiver counterpart of combineSend: instance k takes
// insts[k·t : (k+1)·t], and dst[k]'s choice is their choice bits, its seed
// the chosen candidate's.
func (h *hasher) combineRecv(dst, insts []RecvInst, t int) {
	for k := range dst {
		c := 0
		for b, inst := range insts[k*t : (k+1)*t] {
			c |= inst.Choice << b
		}
		dst[k] = RecvInst{Choice: c}
	}
	k, b := 0, 0
	for lo := 0; lo < len(insts); lo += hashBatch {
		batch := insts[lo:min(len(insts), lo+hashBatch)]
		px := h.px[:len(batch)*aes.BlockSize]
		k0, b0 := k, b
		for i, inst := range batch {
			*at(px, i) = inst.Seed
			putTweak(at(h.out[:], i), tagComb, uint64(dst[k].Choice), uint64(b))
			if b++; b == t {
				k, b = k+1, 0
			}
		}
		permuteBlocks(px, px)
		h.hash(len(batch))
		for i := range batch {
			xorBlock(&dst[k0].Seed, at(h.out[:], i))
			if b0++; b0 == t {
				k0, b0 = k0+1, 0
			}
		}
	}
}

// shortPad returns the pad of a message of at most SeedLen bytes: the seed
// itself, cut to length (see hasher.padXor). It takes no π, so the token
// transfers need no hasher.
func shortPad(seed *[SeedLen]byte, n int) []byte { return seed[:n] }

// padXor XORs seed's pad into dst. Up to one block the pad is the seed
// itself, cut to length, as in textbook IKNP: the seed is already a hash
// output, and it pads exactly one message. A longer pad is the blocks
// H(seed, ⟨tagPad, b⟩) for b = 0, 1, …, never the seed followed by more
// blocks: a known first message block would then reveal the seed, and with
// it the rest of the pad.
func (h *hasher) padXor(dst []byte, seed [SeedLen]byte) {
	if len(dst) <= SeedLen {
		subtle.XORBytes(dst, dst, shortPad(&seed, len(dst)))
		return
	}
	ps := at(h.px[:], 0)
	*ps = seed
	permuteBlocks(ps[:], ps[:])
	blocks := (len(dst) + aes.BlockSize - 1) / aes.BlockSize
	for i := 1; i < min(hashBatch, blocks); i++ {
		*at(h.px[:], i) = *ps
	}
	for lo := 0; lo < blocks; lo += hashBatch {
		m := min(hashBatch, blocks-lo)
		for i := range m {
			putTweak(at(h.out[:], i), tagPad, uint64(lo+i), 0)
		}
		h.hash(m)
		dst = dst[subtle.XORBytes(dst, dst, h.out[:m*aes.BlockSize]):]
	}
}

// PadInto fills dst with the XOR pad of seed (see hasher.padXor). The hot
// loops pad through one hasher per pool chunk; this form takes one per
// call.
func PadInto(dst []byte, seed [SeedLen]byte) {
	clear(dst)
	h := hashers.Get().(*hasher)
	h.padXor(dst, seed)
	hashers.Put(h)
}

// PermuteSeeds sets block i of dst to π(block i of src): the half of H
// that depends on the seed alone. A seed that Expand stretches again for
// every seq keeps π(x) and pays it once. dst and src are whole blocks of
// equal length, the same slice or disjoint.
func PermuteSeeds(dst, src []byte) { permuteBlocks(dst, src) }

// Expand stretches session seeds for one seq: for the seeds x_i whose
// π(x_i) is block i of px, it writes blocks consecutive blocks per seed to
// dst, block b of seed i being H(x_i, ⟨tagSeq, seq, b⟩). It is a PRG keyed
// by x_i with (seq, b) in the tweak, so a seed masks a fresh pad at every
// seq and a replayed seq rebuilds the same one. One pass covers the whole
// slab, and nothing is allocated. px must be whole blocks and len(dst)
// len(px)·blocks, or Expand panics before it writes: the amd64 kernel
// behind it would not check.
func Expand(dst, px []byte, seq uint64, blocks int) {
	if len(px)%aes.BlockSize != 0 || blocks < 0 || len(dst) != len(px)*blocks {
		panic(fmt.Sprintf("ot: Expand of %d bytes of seeds by %d blocks into %d bytes", len(px), blocks, len(dst)))
	}
	expandSeeds(dst, px, seq, blocks)
}

// expandGeneric is Expand's portable body: it writes every tweak block
// ⟨tagSeq, seq, b⟩ ⊕ π(x_i) to dst, runs π over the slab in one call and
// XORs π(x_i) back in. The purego build and CPUs without AES-NI run it.
func expandGeneric(dst, px []byte, seq uint64, blocks int) {
	le := binary.LittleEndian
	const tag = uint64(tagSeq) << 56
	n := len(px) / aes.BlockSize
	for i := range n {
		lo, hi := le.Uint64(px[16*i:]), le.Uint64(px[16*i+8:])
		d := dst[16*i*blocks : 16*(i+1)*blocks]
		for b := 0; b < len(d); b += 16 {
			le.PutUint64(d[b:], lo^seq)
			le.PutUint64(d[b+8:], hi^tag^uint64(b/16))
		}
	}
	permuteBlocks(dst, dst)
	for i := range n {
		lo, hi := le.Uint64(px[16*i:]), le.Uint64(px[16*i+8:])
		d := dst[16*i*blocks : 16*(i+1)*blocks]
		for b := 0; b < len(d); b += 16 {
			le.PutUint64(d[b:], le.Uint64(d[b:])^lo)
			le.PutUint64(d[b+8:], le.Uint64(d[b+8:])^hi)
		}
	}
}
