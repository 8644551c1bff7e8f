package ot

import (
	"bytes"
	"crypto/aes"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"testing"

	"aq2pnn/internal/prg"
)

// The one-block-at-a-time reference for the batched hash forms of hash.go:
// every H is two refPerm calls, built straight from the definitions.

func xor16(a, b [SeedLen]byte) (out [SeedLen]byte) {
	for i := range out {
		out[i] = a[i] ^ b[i]
	}
	return out
}

func refPermute(x [SeedLen]byte) (out [SeedLen]byte) {
	refPerm.Encrypt(out[:], x[:])
	return out
}

func refTweak(tag byte, a, b uint64) (tw [SeedLen]byte) {
	binary.LittleEndian.PutUint64(tw[:8], a)
	binary.LittleEndian.PutUint64(tw[8:], b)
	tw[15] = tag
	return tw
}

// refHash is H(x, ⟨tag, a, b⟩) = π(π(x) ⊕ tw) ⊕ π(x).
func refHash(x [SeedLen]byte, tag byte, a, b uint64) [SeedLen]byte {
	px := refPermute(x)
	return xor16(refPermute(xor16(px, refTweak(tag, a, b))), px)
}

func refCombineSend(dst, raw [][SeedLen]byte) {
	for c := range dst {
		var seed [SeedLen]byte
		for b := range len(raw) / 2 {
			seed = xor16(seed, refHash(raw[2*b+(c>>b)&1], tagComb, uint64(c), uint64(b)))
		}
		dst[c] = seed
	}
}

func refCombineRecv(insts []RecvInst) RecvInst {
	var out RecvInst
	for b, inst := range insts {
		out.Choice |= inst.Choice << b
	}
	for b, inst := range insts {
		out.Seed = xor16(out.Seed, refHash(inst.Seed, tagComb, uint64(out.Choice), uint64(b)))
	}
	return out
}

func refPad(dst []byte, seed [SeedLen]byte) {
	if len(dst) <= SeedLen {
		copy(dst, seed[:])
		return
	}
	for b := uint64(0); len(dst) > 0; b++ {
		blk := refHash(seed, tagPad, b, 0)
		dst = dst[copy(dst, blk[:]):]
	}
}

// chunks splits [0, m) the way a pool of w workers blocks it.
func chunks(m, w int) [][2]int {
	var out [][2]int
	step := (m + w - 1) / w
	for lo := 0; lo < m; lo += step {
		out = append(out, [2]int{lo, min(m, lo+step)})
	}
	return out
}

// TestBatchedHashMatchesBlockwise checks every batched form against the
// one-block reference at sizes on both sides of a staging batch (hb
// blocks, hb/2 rows for the sender's row pairs), run whole and in the pool
// chunks an endpoint hands them: both row hashes, both combiners at every
// arity from 2 to 256, and pads of 1 to 8,200 bytes XORed into a random
// message.
func TestBatchedHashMatchesBlockwise(t *testing.T) {
	const hb = hashBatch
	g := prg.NewSeeded(109)
	h := new(hasher)
	sizes := []int{1, hb/2 - 1, hb / 2, hb/2 + 1, hb - 1, hb, hb + 1, 1000}
	for _, m := range sizes {
		rows := make([]byte, m*SeedLen)
		g.Read(rows)
		delta := make([]byte, SeedLen)
		g.Read(delta)
		const counter = 5
		for _, w := range []int{1, 3} {
			seeds := make([][SeedLen]byte, 2*m)
			recv := make([]RecvInst, m)
			for _, c := range chunks(m, w) {
				lo, hi := c[0], c[1]
				h.rowHashesSend(seeds[2*lo:2*hi], rows[lo*SeedLen:hi*SeedLen], delta, tagRow, counter, lo)
				h.rowHashesRecv(recv[lo:hi], rows[lo*SeedLen:hi*SeedLen], tagRow, counter, lo)
			}
			for j := 0; j < m; j++ {
				row := [SeedLen]byte(rows[j*SeedLen:])
				want0 := refHash(row, tagRow, counter, uint64(j))
				want1 := refHash(xor16(row, [SeedLen]byte(delta)), tagRow, counter, uint64(j))
				if seeds[2*j] != want0 || seeds[2*j+1] != want1 {
					t.Fatalf("rows=%d chunks of %d workers: sender row %d differs from the blockwise hash", m, w, j)
				}
				if recv[j].Seed != want0 {
					t.Fatalf("rows=%d chunks of %d workers: receiver row %d differs from the blockwise hash", m, w, j)
				}
			}
		}
	}
	for tc := 1; tc <= 8; tc++ {
		n := 1 << tc
		for _, count := range []int{1, hb - 1, hb, hb + 1, 1000} {
			if n*count > 1<<16 {
				count = (1 << 16) / n // keep N = 256 at 256 instances
			}
			snd, rcv := Deal(g, 2, count*tc)
			got := make([][SeedLen]byte, count*n)
			g.Read(got[0][:]) // stale data the combiner must overwrite
			h.combineSend(got, snd, tc)
			gotR := make([]RecvInst, count)
			h.combineRecv(gotR, rcv, tc)
			want := make([][SeedLen]byte, n)
			for k := 0; k < count; k++ {
				refCombineSend(want, snd[2*k*tc:2*(k+1)*tc])
				for c := range want {
					if got[k*n+c] != want[c] {
						t.Fatalf("N=%d count=%d: sender instance %d candidate %d differs from the blockwise combiner", n, count, k, c)
					}
				}
				if wr := refCombineRecv(rcv[k*tc : (k+1)*tc]); gotR[k] != wr {
					t.Fatalf("N=%d count=%d: receiver instance %d differs from the blockwise combiner", n, count, k)
				}
				if got[k*n+gotR[k].Choice] != gotR[k].Seed {
					t.Fatalf("N=%d count=%d: instance %d: the combined correlation is inconsistent", n, count, k)
				}
			}
		}
	}
	for _, l := range []int{1, 16, 17, 31, 32, 33, 240, 16*hb - 1, 16 * hb, 16*hb + 1, 8200} {
		var seed [SeedLen]byte
		g.Read(seed[:])
		msg, pad := make([]byte, l), make([]byte, l)
		g.Read(msg)
		refPad(pad, seed)
		got, want := bytes.Clone(msg), make([]byte, l)
		h.padXor(got, seed)
		subtle.XORBytes(want, msg, pad)
		if !bytes.Equal(got, want) {
			t.Errorf("pad of %d bytes differs from the blockwise pad", l)
		}
		if l <= SeedLen && !bytes.Equal(shortPad(&seed, l), pad) {
			t.Errorf("shortPad of %d bytes differs from the blockwise pad", l)
		}
	}
}

// BenchmarkHashForms times the batched forms per block of π they run.
func BenchmarkHashForms(b *testing.B) {
	g := prg.NewSeeded(110)
	const m = 1024
	rows := make([]byte, m*SeedLen)
	g.Read(rows)
	seeds := make([][SeedLen]byte, 2*m)
	recv := make([]RecvInst, m)
	snd, rcv := Deal(g, 2, m)
	comb := make([][SeedLen]byte, 2*m)
	combR := make([]RecvInst, m)
	pad := make([]byte, 8200)
	h := new(hasher)
	for _, bc := range []struct {
		name   string
		blocks int // π blocks per call
		f      func()
	}{
		{"rowHashesSend", 4 * m, func() { h.rowHashesSend(seeds, rows, rows[:SeedLen], tagRow, 1, 0) }},
		{"rowHashesRecv", 2 * m, func() { h.rowHashesRecv(recv, rows, tagRow, 1, 0) }},
		{"combineSend/N=2", 4 * m, func() { h.combineSend(comb, snd, 1) }},
		{"combineRecv/N=2", 2 * m, func() { h.combineRecv(combR, rcv, 1) }},
		{fmt.Sprintf("padXor/%d", len(pad)), 1 + (len(pad)+aes.BlockSize-1)/aes.BlockSize, func() { h.padXor(pad, seeds[0]) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.f()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.blocks), "ns/block")
		})
	}
}

// TestExpandKnownAnswer checks Expand, and the Go fallback beside it,
// against H(x, ⟨tagSeq, seq, b⟩) built from crypto/aes one block at a
// time: 1–9 seeds per call at 1–9, 13, 16, 17 and 98 blocks per seed, so
// that the kernel's eight- and one-block passes start and end inside a
// seed and straddle seed boundaries.
func TestExpandKnownAnswer(t *testing.T) {
	g := prg.NewSeeded(109)
	for _, blocks := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16, 17, 98} {
		for seeds := 1; seeds <= 9; seeds++ {
			seq := g.Uint64() >> g.Intn(64)
			xs := make([][SeedLen]byte, seeds)
			px := make([]byte, seeds*SeedLen)
			for i := range xs {
				g.Read(xs[i][:])
				p := refPermute(xs[i])
				copy(px[i*SeedLen:], p[:])
			}
			want := make([]byte, 0, len(px)*blocks)
			for _, x := range xs {
				for b := range blocks {
					h := refHash(x, tagSeq, seq, uint64(b))
					want = append(want, h[:]...)
				}
			}
			for name, f := range map[string]func(dst, px []byte, seq uint64, blocks int){"Expand": Expand, "expandGeneric": expandGeneric} {
				got := make([]byte, len(want))
				f(got, px, seq, blocks)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: %d seeds × %d blocks at seq %#x differ from crypto/aes", name, seeds, blocks, seq)
				}
			}
		}
	}
}

// TestExpandChecksLength: Expand panics on a dst that is not exactly
// len(px)·blocks bytes, on seeds that are not whole blocks and on a
// negative block count, before it writes a byte of dst's array.
func TestExpandChecksLength(t *testing.T) {
	px := make([]byte, 3*SeedLen)
	prg.NewSeeded(110).Read(px)
	const blocks = 5
	want := len(px) * blocks
	for _, c := range []struct {
		name    string
		dst, px int
		blocks  int
	}{
		{"dst one block short", want - SeedLen, len(px), blocks},
		{"dst one byte short", want - 1, len(px), blocks},
		{"dst one block long", want + SeedLen, len(px), blocks},
		{"seeds not whole blocks", want, len(px) - 1, blocks},
		{"negative blocks", 0, len(px), -1},
	} {
		buf := make([]byte, want+2*SeedLen)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Expand returned, want a panic", c.name)
				}
			}()
			Expand(buf[:c.dst], px[:c.px], 1, c.blocks)
		}()
		if !bytes.Equal(buf, make([]byte, len(buf))) {
			t.Errorf("%s: Expand wrote into dst's array before it panicked", c.name)
		}
	}
}
