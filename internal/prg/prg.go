// Package prg provides the pseudorandom generator used everywhere secret
// randomness is needed: share masks, Beaver triples, OT seeds and the
// synthetic datasets. It is an AES-128-CTR keystream, which is both fast
// and — when seeded from crypto/rand — cryptographically strong. Seeded
// construction gives deterministic, reproducible experiments.
package prg

import (
	"crypto/aes"
	"crypto/cipher"
	crand "crypto/rand"
	"encoding/binary"
	"math"

	"aq2pnn/internal/ring"
)

// SeedSize is the byte length of a PRG seed (AES-128 key + IV).
const SeedSize = 32

// blockLen is the span of Uint64's alignment rule: the keystream is cut
// into 8 KiB blocks, and a word never straddles two of them. The stream
// was first buffered a whole block at a time, and the rule fixes which
// bytes every seeded stream, transcript and digest draws.
const blockLen = 8192

// PRG is a deterministic pseudorandom generator. It is not safe for
// concurrent use; give each goroutine its own instance (Fork).
//
// It buffers 1 KiB of keystream, an eighth of a block: off is the
// buffer's offset in its block, so Uint64 skips a block's last bytes
// exactly where a whole-block buffer would.
type PRG struct {
	stream cipher.Stream
	buf    [blockLen / 8]byte
	pos    int
	off    int
}

// New returns a PRG expanding the given seed.
func New(seed [SeedSize]byte) *PRG {
	block, err := aes.NewCipher(seed[:16])
	if err != nil {
		// aes.NewCipher only fails on bad key sizes; 16 is always valid.
		panic("prg: " + err.Error())
	}
	// The buffer starts spent, as the last of a block: the first draw
	// begins block 0.
	g := &PRG{stream: cipher.NewCTR(block, seed[16:])}
	g.pos, g.off = len(g.buf), blockLen-len(g.buf)
	return g
}

// shortStream is the longest Keystream output built block by block; past
// it the pipelined CTR mode repays its second copy of the key schedule.
const shortStream = 256

// Keystream fills dst with the first len(dst) bytes of New(seed)'s stream,
// without New's buffer: a one-shot expansion (a base-OT pad)
// produces exactly the bytes it uses. Short outputs encrypt the CTR counter
// blocks IV, IV+1, … directly, allocating little beyond the cipher's key
// schedule.
func Keystream(dst []byte, seed [SeedSize]byte) {
	block, err := aes.NewCipher(seed[:16])
	if err != nil {
		// aes.NewCipher only fails on bad key sizes; 16 is always valid.
		panic("prg: " + err.Error())
	}
	if len(dst) > shortStream {
		iv := [aes.BlockSize]byte(seed[16:])
		clear(dst)
		cipher.NewCTR(block, iv[:]).XORKeyStream(dst, dst)
		return
	}
	// Counter and keystream block share one array: Encrypt's arguments
	// escape, so this is the call's one allocation besides the cipher.
	var buf [2 * aes.BlockSize]byte
	ctr, ks := buf[:aes.BlockSize], buf[aes.BlockSize:]
	copy(ctr, seed[16:])
	for len(dst) > 0 {
		block.Encrypt(ks, ctr)
		dst = dst[copy(dst, ks):]
		// Big-endian 128-bit increment, as crypto/cipher's CTR counts.
		for i := len(ctr) - 1; i >= 0; i-- {
			ctr[i]++
			if ctr[i] != 0 {
				break
			}
		}
	}
}

// NewSeeded is a convenience constructor deriving the 32-byte seed from a
// small integer, for tests and reproducible experiments.
func NewSeeded(seed uint64) *PRG {
	var s [SeedSize]byte
	binary.LittleEndian.PutUint64(s[:8], seed)
	s[8] = 0xA9 // domain separation from the all-zero seed
	return New(s)
}

// NewRandom returns a PRG seeded from the operating system CSPRNG.
func NewRandom() (*PRG, error) {
	var s [SeedSize]byte
	if _, err := crand.Read(s[:]); err != nil {
		return nil, err
	}
	return New(s), nil
}

// Fork derives an independent child generator. The child's seed is a fresh
// block of this generator's keystream, so forks from distinct states are
// computationally independent.
func (g *PRG) Fork() *PRG {
	var s [SeedSize]byte
	g.Read(s[:])
	return New(s)
}

// refill moves the buffer to the next 1 KiB of keystream.
func (g *PRG) refill() {
	clear(g.buf[:])
	g.stream.XORKeyStream(g.buf[:], g.buf[:])
	g.pos, g.off = 0, (g.off+len(g.buf))%blockLen
}

// Read fills p with pseudorandom bytes. It never fails.
func (g *PRG) Read(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if g.pos == len(g.buf) {
			g.refill()
		}
		c := copy(p, g.buf[g.pos:])
		g.pos += c
		p = p[c:]
	}
	return n, nil
}

// Uint64 returns a uniform 64-bit value: the next 8 bytes of the stream,
// or, when fewer than 8 are left in the current 8 KiB block, the first 8
// of the next block.
func (g *PRG) Uint64() uint64 {
	if g.pos+8 > len(g.buf) {
		return g.uint64Edge()
	}
	v := binary.LittleEndian.Uint64(g.buf[g.pos:])
	g.pos += 8
	return v
}

// uint64Edge is Uint64 when the word does not fit in the buffer: at a
// block's end it skips the block's last bytes, and inside a block (after
// a Read of a size not a multiple of 8) it reads across the buffer's end.
func (g *PRG) uint64Edge() uint64 {
	var w [8]byte
	if g.off+len(g.buf) == blockLen {
		g.refill()
	}
	g.Read(w[:])
	return binary.LittleEndian.Uint64(w[:])
}

// Elem returns a uniform element of the ring r.
func (g *PRG) Elem(r ring.Ring) uint64 { return g.Uint64() & r.Mask }

// FillElems fills dst with uniform elements of r.
func (g *PRG) FillElems(dst []uint64, r ring.Ring) {
	for i := range dst {
		dst[i] = g.Uint64() & r.Mask
	}
}

// Elems returns n fresh uniform ring elements.
func (g *PRG) Elems(n int, r ring.Ring) []uint64 {
	dst := make([]uint64, n)
	g.FillElems(dst, r)
	return dst
}

// Bit returns a uniform bit.
func (g *PRG) Bit() uint64 { return g.Uint64() & 1 }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (g *PRG) Intn(n int) int {
	if n <= 0 {
		panic("prg: Intn with non-positive bound")
	}
	// Rejection sampling to avoid modulo bias.
	bound := uint64(n)
	limit := (^uint64(0) / bound) * bound
	for {
		v := g.Uint64()
		if v < limit {
			return int(v % bound)
		}
	}
}

// Int64n returns a uniform integer in [-n, n]. It panics if n < 0.
func (g *PRG) Int64n(n int64) int64 {
	if n < 0 {
		panic("prg: Int64n with negative bound")
	}
	return int64(g.Intn(int(2*n+1))) - n
}

// Float64 returns a uniform float in [0, 1).
func (g *PRG) Float64() float64 {
	return float64(g.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box–Muller), used by the
// training substrate for weight initialisation and the dataset generators.
func (g *PRG) NormFloat64() float64 {
	for {
		u := g.Float64()
		if u == 0 {
			continue
		}
		v := g.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// Perm returns a uniform permutation of [0, n).
func (g *PRG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
