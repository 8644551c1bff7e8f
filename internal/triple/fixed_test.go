package triple

import (
	"crypto/aes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
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
		mats[p], err = f.Generate(m)
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
				at := make([]uint64, m)
				for i := range at {
					at[i] = aval
				}
				p := s.plan(m)
				frame := make([]byte, s.frameLen(m))
				s.correctCols(s.scratch(p), p, frame, make([]uint64, m), at, 9, 0, 1)
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
// and the receiver's per-chunk kernels on a taken scratch, and ot.Expand
// under them — allocates nothing.
func TestFixedHotPathAllocs(t *testing.T) {
	r := ring.New(16)
	fp := newFixedPair(t, nil)
	fp.setUp(t, prg.NewSeeded(64), []FixedLayer{{R: r, K: 25, N: 6}})
	s := fp.seeds[0][0]
	const m = 784
	at := make([]uint64, s.K*m)
	zt := make([]uint64, s.N*m)
	frame := make([]byte, s.frameLen(m))
	p := s.plan(m)
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
	_, err := f.Generate(m)
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
		s.absorbCols(sc, plan, make([]uint64, s.N*m), p, 1, 0, s.N)
		fixedScratch.Put(sc)
	})
}

// benchConvShapes are LeNet5's two convolutions at ℓ = 16 (M×K×N).
var benchConvShapes = [][3]int{{784, 25, 6}, {100, 150, 16}}

// BenchmarkFixedChoiceKit times both parties building the two LeNet5
// convolutions' triples of one kit from session seeds, over a pipe on a
// GOMAXPROCS pool. The once-per-session seed OTs run before the timer and
// are reported as setup_ms.
func BenchmarkFixedChoiceKit(b *testing.B) {
	r := ring.New(16)
	pool := parallel.New(0)
	fp := newFixedPair(b, pool)
	var shapes []FixedLayer
	for _, sh := range benchConvShapes {
		shapes = append(shapes, FixedLayer{R: r, K: sh[1], N: sh[2]})
	}
	start := time.Now()
	fp.setUp(b, prg.NewSeeded(68), shapes)
	setup := time.Since(start)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for li, sh := range benchConvShapes {
			fp.gen(b, li, sh[0], uint32(i), pool)
		}
	}
	b.ReportMetric(float64(setup.Microseconds())/1e3, "setup_ms")
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
