package scm

import (
	"fmt"
	"sync"
	"testing"

	"aq2pnn/internal/a2b"
	"aq2pnn/internal/ot"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
)

// lenetActivation is LeNet5's largest comparison tensor: conv1's 6×28×28
// output.
const lenetActivation = 6 * 28 * 28

// runPlane runs one comparison pass, MSB or unsigned compare, over a
// dealer-backed pipe pair.
func runPlane(tb testing.TB, r ring.Ring, xi, xj []uint64, cmp bool, seed uint64) {
	e0, e1, closeFn := newEndpoints(seed)
	defer closeFn()
	runPlaneOn(tb, e0, e1, prg.NewSeeded(seed+3), r, xi, xj, cmp)
}

func runPlaneOn(tb testing.TB, e0, e1 *ot.Endpoint, rng *prg.PRG, r ring.Ring, xi, xj []uint64, cmp bool) {
	var err0, err1 error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if cmp {
			_, err0 = CmpSenderPar(e0, rng, r, xi, BGtA, nil)
		} else {
			_, err0 = MSBSenderPar(e0, rng, r, xi, nil)
		}
	}()
	if cmp {
		_, err1 = CmpReceiverPar(e1, r, xj, BGtA, nil)
	} else {
		_, err1 = MSBReceiverPar(e1, r, xj, nil)
	}
	wg.Wait()
	if err0 != nil || err1 != nil {
		tb.Fatal(err0, err1)
	}
}

// TestComparisonPlaneAllocs is the comparison plane's allocation gate. The
// A2BM splits and both token-row builders allocate nothing per call, and a
// whole MSB or compare pass allocates a fixed number of slabs per tensor:
// the same count, within a small constant, at 64 and 4,096 elements.
func TestComparisonPlaneAllocs(t *testing.T) {
	r := ring.New(16)
	ga := make([]uint64, a2b.U(r.Bits))
	row := make([]byte, rowLen(a2b.Groups(r.Bits)))
	low, full := a2b.LowGroups(r.Bits), a2b.Groups(r.Bits)
	for name, f := range map[string]func(){
		"SplitInto":        func() { a2b.SplitInto(ga, r, 0xBEEF) },
		"SplitLowInto":     func() { a2b.SplitLowInto(ga, r, 0xBEEF) },
		"SenderTokensInto": func() { SenderTokensInto(row, ga, low, 1) },
		"PredTokensInto":   func() { PredTokensInto(row, ga, full, 1, BGtA) },
	} {
		if n := testing.AllocsPerRun(10, f); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, n)
		}
	}

	// A span attribute boxes its value, which is free only below 256, so
	// the larger pass pays a few more allocations that are not per element.
	const slack = 8
	for _, cmp := range []bool{false, true} {
		var allocs [2]float64
		for i, count := range []int{64, 4096} {
			g := prg.NewSeeded(60)
			xi, xj := g.Elems(count, r), g.Elems(count, r)
			allocs[i] = testing.AllocsPerRun(3, func() { runPlane(t, r, xi, xj, cmp, 61) })
		}
		if d := allocs[1] - allocs[0]; d > slack || d < -slack {
			t.Errorf("cmp=%v: %v allocs at 64 elements, %v at 4096: the plane allocates per element", cmp, allocs[0], allocs[1])
		}
	}
}

// BenchmarkComparisonPlane times one MSB pass, both parties, at LeNet5's
// largest activation over a dealer-backed pipe pair. The dealer's
// correlations are dealt inside the loop, as in a local inference.
func BenchmarkComparisonPlane(b *testing.B) {
	for _, bits := range []uint{16, 32} {
		b.Run(fmt.Sprintf("ring%d", bits), func(b *testing.B) {
			r := ring.New(bits)
			g := prg.NewSeeded(70)
			xi, xj := g.Elems(lenetActivation, r), g.Elems(lenetActivation, r)
			e0, e1, closeFn := newEndpoints(71)
			defer closeFn()
			rng := prg.NewSeeded(72)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runPlaneOn(b, e0, e1, rng, r, xi, xj, false)
			}
		})
	}
}
