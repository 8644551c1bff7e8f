package engine

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"time"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/ot"
	"aq2pnn/internal/transport"
)

// warmInferAllocBound caps the median bytes both parties allocate per
// warm Micro inference over loopback TCP at GOMAXPROCS 2. The median was
// about 1,800 KiB while every token step reallocated its OT stock, the
// extension sender's u-frame came fresh from the socket and every PRG
// carried an 8 KiB buffer; with all three reused it reads 800–930 KiB,
// and the bound leaves a fifth on top of that.
const warmInferAllocBound = 1100 << 10

// TestWarmInferAllocs is the warm online path's allocation guard: a banked
// Micro session over loopback TCP fills its bank, stops the filler, and
// runs one warm inference per kit. The median of the bytes allocated
// across each inference (both parties run in this process) must stay
// under warmInferAllocBound, so per-step garbage that comes back fails
// here rather than only in the benchmark. GOMAXPROCS is fixed at 2: the
// worker pool and every per-P buffer pool scale with it, and so does the
// count.
func TestWarmInferAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("full networked session")
	}
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	m, err := nn.ByName("micro", nn.ZooConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]int64, m.InputShape().Numel())
	for i := range x {
		x[i] = int64((i*13)%23) - 11
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const inferences = 32
	cfg := Options{CarrierBits: 16, Seed: 9, Group: ot.TestGroup()}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, done := serveOnce(t, ctx, cfg, m, 1, nil)
	cfg.BankDepth = inferences
	s, err := NewClient(func(ctx context.Context) (transport.Conn, error) {
		return transport.DialContext(ctx, addr, 5*time.Second)
	}, cfg).OpenSession(ctx, m)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	if !s.WarmupPreproc(inferences) || !s.DrainPreproc() {
		t.Fatal("the preprocessing plane did not fill the bank")
	}
	var before, after runtime.MemStats
	per := make([]uint64, inferences)
	for i := range per {
		runtime.ReadMemStats(&before)
		if _, err := s.Infer(ctx, x); err != nil {
			t.Fatalf("inference %d: %v", i, err)
		}
		runtime.ReadMemStats(&after)
		per[i] = after.TotalAlloc - before.TotalAlloc
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := <-done; err != nil {
		t.Errorf("provider: %v", err)
	}
	slices.Sort(per)
	med := per[inferences/2]
	t.Logf("warm inference allocates %d KiB (median of %d; range %d–%d KiB)", med>>10, inferences, per[0]>>10, per[inferences-1]>>10)
	if med > warmInferAllocBound {
		t.Errorf("a warm inference allocates %d KiB (median of %d), want at most %d KiB",
			med>>10, inferences, warmInferAllocBound>>10)
	}
}
