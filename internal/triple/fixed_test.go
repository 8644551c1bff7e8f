package triple

import (
	"bytes"
	"crypto/aes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"aq2pnn/internal/ot"
	"aq2pnn/internal/parallel"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/transport"
)

// fixedPair is two parties' IKNP endpoints over one pipe, with the fixed
// weight-mask shares and seeds of a list of layers once setUp ran.
type fixedPair struct {
	eps   [2]*ot.Endpoint
	seeds [2][]*FixedSeeds
}

func newFixedPair(t testing.TB, pool *parallel.Pool) *fixedPair {
	a, b := transport.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	p := &fixedPair{eps: [2]*ot.Endpoint{ot.NewEndpoint(0, a, prg.NewSeeded(31)), ot.NewEndpoint(1, b, prg.NewSeeded(32))}}
	for _, e := range p.eps {
		e.HarvestGroup = ot.TestGroup()
		e.Pool = pool
	}
	return p
}

// both runs f for the two parties concurrently.
func both(t testing.TB, f func(p int) error) {
	t.Helper()
	var errs [2]error
	var wg sync.WaitGroup
	for p := range 2 {
		wg.Add(1)
		go func() { defer wg.Done(); errs[p] = f(p) }()
	}
	wg.Wait()
	if err := errors.Join(errs[0], errs[1]); err != nil {
		t.Fatal(err)
	}
}

// setUp draws each party's B share of every (ring, K, N) shape from bRng
// and runs the seed OTs, seed pairs from party-specific streams.
func (fp *fixedPair) setUp(t testing.TB, bRng *prg.PRG, shapes []FixedLayer) {
	var layers [2][]FixedLayer
	for _, sh := range shapes {
		for p := range 2 {
			l := sh
			l.BShare = bRng.Elems(l.K*l.N, l.R)
			layers[p] = append(layers[p], l)
		}
	}
	both(t, func(p int) (err error) {
		fp.seeds[p], err = SetupFixed(fp.eps[p], prg.NewSeeded(uint64(40+p)), p, layers[p])
		return err
	})
}

// gen runs one m-row generation of layer li at seq for both parties, with
// A drawn from per-party streams salted by seq.
func (fp *fixedPair) gen(t testing.TB, li, m int, seq uint32, pool *parallel.Pool) [2]*Mat {
	var mats [2]*Mat
	both(t, func(p int) (err error) {
		f := &FixedFamily{EP: fp.eps[p], Rng: prg.NewSeeded(uint64(50 + p + 2*int(seq))), Party: p, Seeds: fp.seeds[p][li], Seq: seq, Pool: pool}
		mats[p], err = f.Next(m)
		return err
	})
	return mats
}

// TestFixedChoiceTriple checks Z = rec(A)·rec(B) against the plaintext
// product of the reconstructed masks, over several shapes, rings of 12, 16
// and 32 bits and seqs, two layers per set-up so the batched seed OTs must
// land on the right layer.
func TestFixedChoiceTriple(t *testing.T) {
	g := prg.NewSeeded(61)
	for _, bits := range []uint{12, 16, 32} {
		r := ring.New(bits)
		for _, pool := range []*parallel.Pool{nil, parallel.New(3)} {
			fp := newFixedPair(t, pool)
			shapes := []FixedLayer{{R: r, K: 1 + g.Intn(6), N: 1 + g.Intn(4)}, {R: r, K: 1 + g.Intn(9), N: 1 + g.Intn(5)}}
			fp.setUp(t, g, shapes)
			for seq := uint32(0); seq < 3; seq++ {
				for li := range shapes {
					m := shapes[li].N + 1 + g.Intn(20)
					mats := fp.gen(t, li, m, seq, pool)
					checkTriple(t, r, mats[0], mats[1])
				}
			}
		}
	}
}

// TestFixedCorrectionHidesA checks that a correction u = G(k⁰) − G(k¹) +
// A mod 2^(ℓ−t) looks uniform to a receiver holding k^b, whatever A is: at
// b = 0 and b = 1, with k^b fixed and k^{1−b} fresh per draw, the elements
// of u for A = 0 and for A = 0xA5 pass a χ² test against the uniform
// distribution on their ℓ−t bits, for bits t = 0 (8 bits) and t = 5 (3
// bits) of an 8-bit ring. The bound is six standard deviations above the
// mean, dof + 6·√(2·dof).
func TestFixedCorrectionHidesA(t *testing.T) {
	const m, draws = 64, 128
	r := ring.New(8)
	g := prg.NewSeeded(62)
	for b := range 2 {
		for _, aval := range []uint64{0, 0xA5} {
			var known [aes.BlockSize]byte
			g.Read(known[:])
			hists := map[int][]int{0: make([]int, 256), 5: make([]int, 8)}
			for range draws {
				s := &FixedSeeds{FixedLayer: FixedLayer{R: r, K: 1, N: 1, BShare: []uint64{0}}}
				seeds := make([]byte, 2*8*aes.BlockSize)
				g.Read(seeds)
				for tb := range 8 {
					copy(seeds[(2*tb+b)*aes.BlockSize:], known[:])
				}
				s.send = make([]byte, len(seeds))
				ot.PermuteSeeds(s.send, seeds)
				a := make([]uint64, m)
				for i := range a {
					a[i] = aval
				}
				p := s.plan(m)
				at := make([]uint64, p.words)
				p.pack(at, a, 1)
				frame := make([]byte, s.frameLen(m))
				s.correctCols(s.scratch(p), p, frame, make([]uint64, p.words), at, 9, 0, 1)
				for tb, hist := range hists {
					for _, v := range frame[p.fo[tb] : p.fo[tb]+m] {
						hist[v]++
					}
				}
			}
			for tb, hist := range hists {
				n, dof := float64(m*draws), float64(len(hist)-1)
				chi := 0.0
				for _, c := range hist {
					d := float64(c) - n/float64(len(hist))
					chi += d * d / (n / float64(len(hist)))
				}
				if bound := dof + 6*math.Sqrt(2*dof); chi > bound {
					t.Errorf("b=%d, A=%#x, bit %d: χ² = %.1f over %v degrees of freedom (bound %.1f), u is not uniform", b, aval, tb, chi, dof, bound)
				}
			}
		}
	}
}

// TestFixedExpansionsNeverRepeat checks that no two expansion blocks share
// a hash input (seed, seq, block) across layers, cross terms and seqs: over
// both parties' seed pairs of two layers and three seqs, every block is
// distinct (equal inputs would give equal blocks). It also checks that
// every receiver seed is one of its sender's pair, at the choice bit.
func TestFixedExpansionsNeverRepeat(t *testing.T) {
	r := ring.New(16)
	fp := newFixedPair(t, nil)
	fp.setUp(t, prg.NewSeeded(63), []FixedLayer{{R: r, K: 3, N: 2}, {R: r, K: 2, N: 3}})
	const blocks = 3
	seen := map[[aes.BlockSize]byte]string{}
	for p := range 2 {
		for li, s := range fp.seeds[p] {
			peer := fp.seeds[1-p][li]
			for idx := range s.K * s.N {
				for tb := range int(s.R.Bits) {
					o := idx*int(s.R.Bits) + tb
					c := s.BShare[idx] >> tb & 1
					if got, want := s.recv[o*aes.BlockSize:(o+1)*aes.BlockSize], peer.send[(2*o+int(c))*aes.BlockSize:(2*o+int(c)+1)*aes.BlockSize]; string(got) != string(want) {
						t.Fatalf("party %d layer %d OT %d: received seed is not the sender's at choice %d", p, li, o, c)
					}
				}
			}
			for seq := range uint64(3) {
				out := make([]byte, len(s.send)*blocks)
				ot.Expand(out, s.send, seq, blocks)
				for i := 0; i < len(out); i += aes.BlockSize {
					k := [aes.BlockSize]byte(out[i : i+aes.BlockSize])
					if prev, ok := seen[k]; ok {
						t.Fatalf("party %d layer %d seq %d block %d repeats %s", p, li, seq, i/aes.BlockSize, prev)
					}
					seen[k] = "an earlier block"
				}
			}
		}
	}
}

// TestFixedHotPathAllocs: a kit's steady-state expansion — the sender's
// and the receiver's per-chunk kernels on a taken scratch and lane rows,
// and ot.Expand under them — allocates nothing.
func TestFixedHotPathAllocs(t *testing.T) {
	r := ring.New(16)
	fp := newFixedPair(t, nil)
	fp.setUp(t, prg.NewSeeded(64), []FixedLayer{{R: r, K: 25, N: 6}})
	s := fp.seeds[0][0]
	const m = 784
	p := s.plan(m)
	at := make([]uint64, s.K*p.words)
	zt := make([]uint64, s.N*p.words)
	frame := make([]byte, s.frameLen(m))
	sc := s.scratch(p)
	px := s.send[:4*aes.BlockSize]
	ex := make([]byte, 4*p.nb[0]*aes.BlockSize)
	for name, f := range map[string]func(){
		"Expand":      func() { ot.Expand(ex, px, 3, p.nb[0]) },
		"correctCols": func() { s.correctCols(sc, p, frame, zt, at, 3, 0, 1) },
		"absorbCols":  func() { s.absorbCols(sc, p, zt, frame, 3, 0, 1) },
	} {
		if n := testing.AllocsPerRun(3, f); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, n)
		}
	}
}

// correctRowRef and addRowRef are the per-element sender and receiver
// rows that the lane kernels replaced, kept as their reference.
// correctRowRef sets u to the w-byte elements g0 − g1 + a, reduced by
// mask, and subtracts g0·2^t, reduced by zmask, from z, for the len(z)
// elements of the expansions e0 and e1 (read from their start, reduced by
// mask). addRowRef adds 2^t times each of the len(z) w-byte elements at
// the start of p, reduced by mask, then by zmask, to z.
func correctRowRef(u, e0, e1 []byte, z, a []uint64, t uint, w int, mask, zmask uint64) {
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

func addRowRef(z []uint64, p []byte, t uint, w int, mask, zmask uint64) {
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

// TestFixedLanesMatchScalar runs one (kk, j, t) of the sender and of the
// receiver through the plan's lane kernels and through the per-element
// reference, on random expansions, A, peer corrections (with bits above
// the mask set) and accumulators, at every ring width 1–16, every bit t
// and both b, for m = 1…17, 100 and 784 so that every word tail runs. The
// corrections must match byte for byte, without a write past the row,
// and the accumulators element for element mod 2^ℓ.
func TestFixedLanesMatchScalar(t *testing.T) {
	g := prg.NewSeeded(71)
	ms := []int{100, 784}
	for m := 1; m <= 17; m++ {
		ms = append(ms, m)
	}
	for bits := uint(1); bits <= 16; bits++ {
		r := ring.New(bits)
		s := &FixedSeeds{FixedLayer: FixedLayer{R: r, K: 1, N: 1}}
		for _, m := range ms {
			p := s.plan(m)
			a := g.Elems(m, r)
			at := make([]uint64, p.words)
			p.pack(at, a, 1)
			for tb := range int(bits) {
				w, cl := p.w[tb], &p.cls[classOf(p.w[tb])]
				e0 := make([]byte, p.nb[tb]*aes.BlockSize)
				e1 := make([]byte, len(e0))
				g.Read(e0)
				g.Read(e1)
				z0 := make([]uint64, p.words)
				for i := range z0 {
					z0[i] = g.Uint64()
				}
				// elems is an accumulator row's bit-t class, element by
				// element, as its contribution to Z mod 2^ℓ.
				elems := func(z []uint64) []uint64 {
					out := make([]uint64, m)
					for i := range out {
						out[i] = cl.elem(z, i) & r.Mask
					}
					return out
				}
				check := func(what string, z []uint64, ref []uint64) {
					t.Helper()
					got := elems(z)
					for i := range ref {
						if got[i] != ref[i]&r.Mask {
							t.Fatalf("ℓ=%d m=%d t=%d %s: element %d of the accumulator is %#x, reference %#x", bits, m, tb, what, i, got[i], ref[i]&r.Mask)
						}
					}
				}

				buf := make([]byte, m*w+8)
				for i := range buf {
					buf[i] = 0xEE
				}
				z, zref, uref := slices.Clone(z0), elems(z0), make([]byte, m*w)
				p.correctRow(buf[:m*w], e0, e1, z, at, tb)
				correctRowRef(uref, e0, e1, zref, a, uint(tb), w, p.mask[tb], r.Mask)
				if !bytes.Equal(buf[:m*w], uref) {
					t.Fatalf("ℓ=%d m=%d t=%d: lane corrections differ from the reference", bits, m, tb)
				}
				if !bytes.Equal(buf[m*w:], bytes.Repeat([]byte{0xEE}, 8)) {
					t.Fatalf("ℓ=%d m=%d t=%d: correctRow wrote past its row", bits, m, tb)
				}
				check("sender", z, zref)

				peer := make([]byte, m*w)
				g.Read(peer)
				for b := range uint64(2) {
					z, zref := slices.Clone(z0), elems(z0)
					p.absorbRow(z, e0, peer[:m*w:m*w], tb, b)
					addRowRef(zref, e0, uint(tb), w, p.mask[tb], r.Mask)
					if b == 1 {
						addRowRef(zref, peer, uint(tb), w, p.mask[tb], r.Mask)
					}
					check(fmt.Sprintf("receiver b=%d", b), z, zref)
				}
			}
		}
	}
}

// TestFixedFrameLengthChecked: a peer frame of the wrong length fails with
// the typed *FrameError before anything reads it, and the sender side of
// that exchange is unaffected.
func TestFixedFrameLengthChecked(t *testing.T) {
	r := ring.New(16)
	fp := newFixedPair(t, nil)
	fp.setUp(t, prg.NewSeeded(65), []FixedLayer{{R: r, K: 2, N: 1}})
	const m = 3
	hostile := make(chan error, 1)
	go func() {
		// A hostile party 1: reads party 0's frame, answers one byte short.
		c := fp.eps[1].Conn
		p, err := c.Recv()
		if err == nil {
			err = c.Send(p[1:])
		}
		hostile <- err
	}()
	f := &FixedFamily{EP: fp.eps[0], Rng: prg.NewSeeded(1), Party: 0, Seeds: fp.seeds[0][0], Seq: 1}
	_, err := f.Next(m)
	if herr := <-hostile; herr != nil {
		t.Fatal(herr)
	}
	var fe *FrameError
	if !errors.As(err, &fe) || fe.Want != fp.seeds[0][0].frameLen(m) || fe.Got != fe.Want-1 {
		t.Fatalf("short frame: %v, want a *FrameError for %d bytes", err, fp.seeds[0][0].frameLen(m))
	}
}

// TestFixedChoiceSharesPinned pins the shares fixed-choice generation hands
// each party: seed OTs over IKNP endpoints, then two seqs of two layers at
// widths whose expansions span one block (m = 3 at 12 bits) up to many
// (m = 100 at 16 bits). The shares are a function of the seed-pair draws,
// the B shares, A and seq only, never of the endpoints' own randomness or
// of the worker count, so `go test -cpu 1,4,8` and the purego build must
// reproduce the digest.
func TestFixedChoiceSharesPinned(t *testing.T) {
	pool := parallel.New(0)
	fp := newFixedPair(t, pool)
	shapes := []FixedLayer{{R: ring.New(12), K: 3, N: 2}, {R: ring.New(16), K: 5, N: 4}}
	fp.setUp(t, prg.NewSeeded(66), shapes)
	h := fnv.New64a()
	for seq := uint32(0); seq < 2; seq++ {
		for li, m := range []int{3, 100} {
			mats := fp.gen(t, li, m, seq, pool)
			checkTriple(t, shapes[li].R, mats[0], mats[1])
			for _, mt := range mats {
				for _, v := range [][]uint64{mt.A, mt.B, mt.Z} {
					for _, x := range v {
						h.Write(binary.LittleEndian.AppendUint64(nil, x))
					}
				}
			}
		}
	}
	if got, want := h.Sum64(), uint64(0xa172f4492f1fddfe); got != want {
		t.Errorf("fixed-choice share digest %#x, want %#x", got, want)
	}
}

// FuzzFixedChoiceFrame feeds arbitrary bytes to party 0 as party 1's
// correction frame for one 2×3 layer at m = 5 on a 12-bit ring (480
// bytes): a frame of the wrong length must fail with *FrameError, and any
// frame of the right length must decode without a panic. The committed
// corpus holds frames of the right length and one byte either side.
func FuzzFixedChoiceFrame(f *testing.F) {
	r := ring.New(12)
	fp := newFixedPair(f, nil)
	fp.setUp(f, prg.NewSeeded(67), []FixedLayer{{R: r, K: 2, N: 3}})
	s := fp.seeds[0][0]
	const m = 5
	f.Fuzz(func(t *testing.T, p []byte) {
		err := s.checkFrame(p, m)
		if len(p) != s.frameLen(m) {
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("%d-byte frame: %v, want *FrameError", len(p), err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		plan := s.plan(m)
		sc := s.scratch(plan)
		s.absorbCols(sc, plan, make([]uint64, s.N*plan.words), p, 1, 0, s.N)
		fixedScratch.Put(sc)
	})
}

// benchConvShapes are LeNet5's two convolutions at ℓ = 16 (M×K×N).
var benchConvShapes = [][3]int{{784, 25, 6}, {100, 150, 16}}

// BenchmarkFixedChoiceKit times both parties building the fixed-choice
// convolutions' triples of one kit from session seeds, over a pipe on a
// GOMAXPROCS pool: lenet5 builds LeNet5's two, micro Micro's one
// (64×9×4), which fleet_micro's cold inferences run inline. The
// once-per-session seed OTs run before the timer and are reported as
// setup_ms.
func BenchmarkFixedChoiceKit(b *testing.B) {
	for _, bc := range []struct {
		name   string
		shapes [][3]int
	}{{"lenet5", benchConvShapes}, {"micro", [][3]int{{64, 9, 4}}}} {
		b.Run(bc.name, func(b *testing.B) {
			r := ring.New(16)
			pool := parallel.New(0)
			fp := newFixedPair(b, pool)
			var shapes []FixedLayer
			for _, sh := range bc.shapes {
				shapes = append(shapes, FixedLayer{R: r, K: sh[1], N: sh[2]})
			}
			start := time.Now()
			fp.setUp(b, prg.NewSeeded(68), shapes)
			setup := time.Since(start)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for li, sh := range bc.shapes {
					fp.gen(b, li, sh[0], uint32(i), pool)
				}
			}
			b.ReportMetric(float64(setup.Microseconds())/1e3, "setup_ms")
		})
	}
}

// BenchmarkGilboaConvKit is BenchmarkFixedChoiceKit's reference: the same
// two products through GenMatGilboa, whose OT extension runs per kit.
func BenchmarkGilboaConvKit(b *testing.B) {
	r := ring.New(16)
	fp := newFixedPair(b, parallel.New(0))
	rngs := [2]*prg.PRG{prg.NewSeeded(69), prg.NewSeeded(70)}
	for i := 0; i < b.N; i++ {
		for _, sh := range benchConvShapes {
			both(b, func(p int) error {
				_, err := GenMatGilboa(fp.eps[p], rngs[p], r, p, sh[0], sh[1], sh[2])
				return err
			})
		}
	}
}
