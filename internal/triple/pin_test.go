package triple

import (
	"encoding/binary"
	"hash/fnv"
	"sync"
	"testing"

	"aq2pnn/internal/ot"
	"aq2pnn/internal/parallel"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/transport"
)

// TestGilboaSharesPinned pins the triple shares Gilboa generation hands
// each party over IKNP-backed endpoints, at widths whose OT messages span
// one AES block (n = 2) up to several (n = 20 and 120 on a 16-bit ring).
// The shares are a function of the sender's rng draws in (row, bit,
// element) order and of the receiver's choice bits, so any reordering of
// those draws moves the digest — the warm ≡ cold argument of the
// preprocessing plane rests on exactly that order. The endpoints run on a
// GOMAXPROCS-sized pool, so `go test -cpu 1,4,8` checks that the digest
// does not depend on the worker count.
func TestGilboaSharesPinned(t *testing.T) {
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	eps := [2]*ot.Endpoint{ot.NewEndpoint(0, a, prg.NewSeeded(31)), ot.NewEndpoint(1, b, prg.NewSeeded(32))}
	rngs := [2]*prg.PRG{prg.NewSeeded(33), prg.NewSeeded(34)}
	for _, e := range eps {
		e.HarvestGroup = ot.TestGroup()
		e.UseExtension = true
		e.Pool = parallel.New(0)
	}
	h := fnv.New64a()
	for _, sh := range []struct {
		bits    uint
		m, k, n int
	}{{12, 2, 3, 2}, {16, 2, 3, 20}, {16, 1, 4, 120}} {
		r := ring.New(sh.bits)
		var mats [2]*Mat
		var errs [2]error
		var wg sync.WaitGroup
		for p := range eps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				mats[p], errs[p] = GenMatGilboa(eps[p], rngs[p], r, p, sh.m, sh.k, sh.n)
			}()
		}
		wg.Wait()
		if errs[0] != nil || errs[1] != nil {
			t.Fatal(errs[0], errs[1])
		}
		checkTriple(t, r, mats[0], mats[1])
		for _, mt := range mats {
			for _, v := range [][]uint64{mt.A, mt.B, mt.Z} {
				for _, x := range v {
					h.Write(binary.LittleEndian.AppendUint64(nil, x))
				}
			}
		}
	}
	if got, want := h.Sum64(), uint64(0xa0c57fbe9167136c); got != want {
		t.Errorf("Gilboa share digest %#x, want %#x", got, want)
	}
}
