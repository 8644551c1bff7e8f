package ot

import (
	"bytes"
	"crypto/aes"
	"encoding/hex"
	"fmt"
	"testing"

	"aq2pnn/internal/prg"
)

// refPerm is π straight from crypto/aes under the fixed key, one block per
// call, built apart from the package's own cipher.Block. NewCipher fails
// only on a bad key length, and the key is 16 bytes.
var refPerm, _ = aes.NewCipher([]byte(fixedKey))

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPermKnownAnswer checks the key expansion against FIPS-197 (the last
// round key of Appendix A.1, and on an AES-NI build the Appendix C.1
// encryption through the kernel), then π itself against crypto/aes under
// the fixed key.
func TestPermKnownAnswer(t *testing.T) {
	rk := expandKey([16]byte(unhex(t, "2b7e151628aed2a6abf7158809cf4f3c")))
	if got, want := rk[160:], unhex(t, "d014f9a8c9ee2589e13f0cc8b6630ca6"); !bytes.Equal(got, want) {
		t.Errorf("A.1 round key 10 = %x, want %x", got, want)
	}
	rk = expandKey([16]byte(unhex(t, "000102030405060708090a0b0c0d0e0f")))
	got := make([]byte, aes.BlockSize)
	if kernelWith(&rk, got, unhex(t, "00112233445566778899aabbccddeeff")) {
		if want := unhex(t, "69c4e0d86a7b0430d8cdb78070b4c55a"); !bytes.Equal(got, want) {
			t.Errorf("C.1 through the kernel = %x, want %x", got, want)
		}
	} else {
		t.Log("no AES-NI kernel in this build or on this CPU; C.1 not run")
	}
	g := prg.NewSeeded(107)
	for _, n := range []int{1, 8, 9, 100} {
		src := make([]byte, n*aes.BlockSize)
		g.Read(src)
		got := make([]byte, len(src))
		permuteBlocks(got, src)
		for i := 0; i < len(src); i += aes.BlockSize {
			want := make([]byte, aes.BlockSize)
			refPerm.Encrypt(want, src[i:i+aes.BlockSize])
			if !bytes.Equal(got[i:i+aes.BlockSize], want) {
				t.Fatalf("n=%d: π(block %d) = %x, crypto/aes gives %x", n, i/aes.BlockSize, got[i:i+aes.BlockSize], want)
			}
		}
	}
}

// sbox is the AES S-box's definition (FIPS-197 Sec. 5.1.1): the inverse
// of x in GF(2^8), taking 0 to 0, through the affine map b ⊕ rotl(b, 1…4)
// ⊕ 0x63.
func sbox(x byte) byte {
	inv, sq := byte(1), x
	for e := 254; e > 0; e >>= 1 { // x^254 = x^-1
		if e&1 == 1 {
			inv = gmul(inv, sq)
		}
		sq = gmul(sq, sq)
	}
	s := inv
	for r := 1; r <= 4; r++ {
		s ^= inv<<r | inv>>(8-r)
	}
	return s ^ 0x63
}

// gmul multiplies in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1.
func gmul(a, b byte) (p byte) {
	for ; b != 0; b >>= 1 {
		if b&1 == 1 {
			p ^= a
		}
		carry := a & 0x80
		a <<= 1
		if carry != 0 {
			a ^= 0x1b
		}
	}
	return p
}

// TestSboxTable checks expandKey's tables against their definitions:
// every S-box entry, and the round constants x^0…x^9 in GF(2^8).
func TestSboxTable(t *testing.T) {
	for x := range sboxTable {
		if got, want := sboxTable[x], sbox(byte(x)); got != want {
			t.Errorf("sboxTable[%#02x] = %#02x, want %#02x", x, got, want)
		}
	}
	c := byte(1)
	for r, got := range rcon {
		if got != c {
			t.Errorf("rcon[%d] = %#02x, want %#02x", r, got, c)
		}
		c = gmul(c, 2)
	}
}

// TestExpandKeyMatchesCrypto encrypts through the kernel under expandKey's
// round keys for random keys, and requires crypto/aes's result under the
// same key, on 9 blocks, so that the 8-way and the one-block passes both
// read every round key.
func TestExpandKeyMatchesCrypto(t *testing.T) {
	g := prg.NewSeeded(109)
	src := make([]byte, 9*aes.BlockSize)
	got, want := make([]byte, len(src)), make([]byte, len(src))
	for n := range 200 {
		var key [aes.BlockSize]byte
		g.Read(key[:])
		g.Read(src)
		rk := expandKey(key)
		if !kernelWith(&rk, got, src) {
			t.Skip("no AES-NI kernel in this build or on this CPU; expandKey is unused")
		}
		ref := newBlock(key)
		for i := 0; i < len(src); i += aes.BlockSize {
			ref.Encrypt(want[i:i+aes.BlockSize], src[i:i+aes.BlockSize])
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("key %d (%x): kernel under expandKey differs from crypto/aes", n, key)
		}
	}
}

// TestPermKernelMatchesFallback compares permuteBlocks with the per-block
// fallback directly, so the fallback runs even where the kernel serves
// every production call, at every length through the 8-, 4- and 1-way
// tails, in place and disjoint.
func TestPermKernelMatchesFallback(t *testing.T) {
	g := prg.NewSeeded(108)
	for n := 0; n <= 40; n++ {
		src := make([]byte, n*aes.BlockSize)
		g.Read(src)
		want := make([]byte, len(src))
		permuteBlocksGeneric(want, src)
		got := make([]byte, len(src))
		permuteBlocks(got, src)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d disjoint: kernel and fallback differ", n)
		}
		permuteBlocks(src, src)
		if !bytes.Equal(src, want) {
			t.Fatalf("n=%d in place: kernel and fallback differ", n)
		}
	}
}

// FuzzPermBlocks is a differential test of permuteBlocks against
// crypto/aes over whole blocks of arbitrary input, in place or into a
// disjoint dst. The seeds cover every lane tail: 0, 1, 3, 4, 7, 8 and 9
// blocks.
func FuzzPermBlocks(f *testing.F) {
	for _, n := range []int{0, 1, 3, 4, 7, 8, 9, 21} {
		data := make([]byte, n*aes.BlockSize)
		prg.NewSeeded(uint64(n)).Read(data)
		f.Add(data, n%2 == 0)
	}
	f.Fuzz(func(t *testing.T, data []byte, inPlace bool) {
		src := data[:len(data)/aes.BlockSize*aes.BlockSize]
		want := make([]byte, len(src))
		for i := 0; i < len(src); i += aes.BlockSize {
			refPerm.Encrypt(want[i:i+aes.BlockSize], src[i:i+aes.BlockSize])
		}
		dst := make([]byte, len(src))
		if inPlace {
			copy(dst, src)
			permuteBlocks(dst, dst)
		} else {
			permuteBlocks(dst, src)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("%d blocks (in place %v): permuteBlocks differs from crypto/aes", len(src)/aes.BlockSize, inPlace)
		}
	})
}

// BenchmarkPermBlocks reports ns per block for permuteBlocks (the kernel,
// where the build and CPU have one) and for the one-block Encrypt loop, at
// a hasher's batch size.
func BenchmarkPermBlocks(b *testing.B) {
	for _, bc := range []struct {
		name string
		f    func(dst, src []byte)
	}{{"kernel", permuteBlocks}, {"oneblock", permuteBlocksGeneric}} {
		b.Run(fmt.Sprintf("%s/%d", bc.name, hashBatch), func(b *testing.B) {
			buf := make([]byte, hashBatch*aes.BlockSize)
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				bc.f(buf, buf)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hashBatch), "ns/block")
		})
	}
}

var rkSink roundKeys

// BenchmarkExpandKey reports ns per AES-128 key schedule: a plane pays one
// per column seed, 3κ per party.
func BenchmarkExpandKey(b *testing.B) {
	var key [aes.BlockSize]byte
	for i := 0; i < b.N; i++ {
		key[0] = byte(i)
		rkSink = expandKey(key)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/key")
}

// FuzzExpand is a differential test of Expand's kernel against the Go
// fallback over arbitrary seeds (up to 64), seq and blocks per seed
// (0–31). The corpus runs 0, 1, 3, 4, 7, 8 and 9 seeds at 1 to 13 blocks
// each, so that passes of eight and of one end inside a seed and across
// seed boundaries.
func FuzzExpand(f *testing.F) {
	for i, c := range [][2]int{{1, 1}, {3, 2}, {4, 5}, {7, 8}, {8, 1}, {9, 13}, {0, 3}} {
		data := make([]byte, c[0]*aes.BlockSize)
		prg.NewSeeded(uint64(i)).Read(data)
		f.Add(data, uint64(i)<<32|uint64(c[0]), uint8(c[1]))
	}
	f.Fuzz(func(t *testing.T, data []byte, seq uint64, blocks uint8) {
		px := data[:min(len(data), 64*aes.BlockSize)/aes.BlockSize*aes.BlockSize]
		n := int(blocks % 32)
		want := make([]byte, len(px)*n)
		expandGeneric(want, px, seq, n)
		got := make([]byte, len(want))
		Expand(got, px, seq, n)
		if !bytes.Equal(got, want) {
			t.Fatalf("%d seeds × %d blocks at seq %#x: Expand differs from the Go fallback", len(px)/aes.BlockSize, n, seq)
		}
	})
}

// BenchmarkExpand reports ns per block for Expand (the kernel, where the
// build and CPU have one) and for the Go fallback, at the fixed-choice
// kit's two shapes: 16 seeds of 98 blocks (LeNet5's first convolution)
// and 16 of 4 (Micro's).
func BenchmarkExpand(b *testing.B) {
	for _, bc := range []struct {
		name string
		f    func(dst, px []byte, seq uint64, blocks int)
	}{{"kernel", Expand}, {"generic", expandGeneric}} {
		for _, blocks := range []int{98, 4} {
			b.Run(fmt.Sprintf("%s/16x%d", bc.name, blocks), func(b *testing.B) {
				px := make([]byte, 16*aes.BlockSize)
				prg.NewSeeded(111).Read(px)
				dst := make([]byte, len(px)*blocks)
				b.SetBytes(int64(len(dst)))
				for i := 0; i < b.N; i++ {
					bc.f(dst, px, uint64(i), blocks)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*16*blocks), "ns/block")
			})
		}
	}
}
