package ot

import (
	"bytes"
	"crypto/aes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"aq2pnn/internal/prg"
	"aq2pnn/internal/transport"
)

// newExtPair runs the reversed base phase and returns paired extender
// states over a pipe.
func newExtPair(t testing.TB, seed uint64) (*ExtSender, *ExtReceiver, func()) {
	t.Helper()
	a, b := transport.Pipe()
	var s *ExtSender
	var r *ExtReceiver
	var es, er error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); s, es = NewExtSender(a, TestGroup(), prg.NewSeeded(seed), ExtKappa) }()
	go func() { defer wg.Done(); r, er = NewExtReceiver(b, TestGroup(), prg.NewSeeded(seed+1), ExtKappa) }()
	wg.Wait()
	if es != nil || er != nil {
		t.Fatal(es, er)
	}
	return s, r, func() { a.Close(); b.Close() }
}

func extendPair(t testing.TB, s *ExtSender, r *ExtReceiver, m int) ([][SeedLen]byte, []RecvInst) {
	t.Helper()
	var si [][SeedLen]byte
	var ri []RecvInst
	var es, er error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); si, es = s.Extend(m) }()
	go func() { defer wg.Done(); ri, er = r.Extend(m) }()
	wg.Wait()
	if es != nil || er != nil {
		t.Fatal(es, er)
	}
	return si, ri
}

// columnKey is the prg.Keystream seed whose stream is a column's expansion
// in one extend call, laid out apart from columnIV: the column seed as the
// AES key, the call's counter little-endian in bytes 16–23 and the
// domain's byte in byte 31.
func columnKey(seed [SeedLen]byte, dom int, counter uint64) [prg.SeedSize]byte {
	var s [prg.SeedSize]byte
	copy(s[:SeedLen], seed[:])
	binary.LittleEndian.PutUint64(s[SeedLen:SeedLen+8], counter)
	s[prg.SeedSize-1] = domSeedByte[dom]
	return s
}

// checkExpansion requires a keyed column expansion from iv, through the
// build's colKey and through the one-block fallback, to equal
// prg.Keystream under key, whose AES key is seed and whose IV is iv.
func checkExpansion(t testing.TB, what string, seed [SeedLen]byte, iv [aes.BlockSize]byte, n int) {
	t.Helper()
	key := [prg.SeedSize]byte(append(seed[:], iv[:]...))
	want := make([]byte, n)
	prg.Keystream(want, key)
	k := newColKey(seed)
	got := bytes.Repeat([]byte{0xA5}, n)
	var tail [aes.BlockSize]byte
	k.expand(got, iv, &tail)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s, %d B: keyed expansion differs from prg.Keystream", what, n)
	}
	clear(got)
	ctrGeneric(newBlock(seed), got, iv, &tail)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s, %d B: one-block expansion differs from prg.Keystream", what, n)
	}
}

// TestColumnExpansion checks the keyed column expansion byte for byte
// against prg.Keystream under columnKey, at lengths on both sides of the
// kernel's one-block, partial-tail and 8-way steps and of Keystream's
// switch to crypto/cipher's CTR, in both domains, at the first counters
// of seq 0's KitHalf and seq MaxUint32's OnlineHalf; and at IVs whose low
// 64-bit word carries into the high one, and whose whole 128 bits wrap.
func TestColumnExpansion(t *testing.T) {
	g := prg.NewSeeded(61)
	lengths := []int{1, 15, 16, 17, 128, 255, 256, 257, 4101}
	for _, ctr := range []uint64{nsStart(0, KitHalf), nsStart(math.MaxUint32, OnlineHalf)} {
		for dom := range domSeedByte {
			var seed [SeedLen]byte
			g.Read(seed[:])
			key := columnKey(seed, dom, ctr)
			if iv := columnIV(dom, ctr); !bytes.Equal(iv[:], key[SeedLen:]) {
				t.Fatalf("counter %#x domain %d: columnIV %x, columnKey's IV %x", ctr, dom, iv, key[SeedLen:])
			}
			for _, n := range lengths {
				checkExpansion(t, fmt.Sprintf("counter %#x domain %d", ctr, dom), seed, columnIV(dom, ctr), n)
			}
		}
	}
	for _, iv := range []string{
		"0123456789abcdeffffffffffffffffd", // low word carries at block 3
		"ffffffffffffffffffffffffffffffff", // 128-bit wrap at block 1
	} {
		var seed [SeedLen]byte
		g.Read(seed[:])
		for _, n := range lengths {
			checkExpansion(t, "IV "+iv, seed, [aes.BlockSize]byte(unhex(t, iv)), n)
		}
	}
}

func TestExtensionCorrelationsConsistent(t *testing.T) {
	s, r, closeFn := newExtPair(t, 1)
	defer closeFn()
	si, ri := extendPair(t, s, r, 500)
	choiceCounts := [2]int{}
	for j := range ri {
		c := ri[j].Choice
		choiceCounts[c]++
		if !bytes.Equal(si[2*j+c][:], ri[j].Seed[:]) {
			t.Fatalf("instance %d: receiver seed does not match sender seed[%d]", j, c)
		}
		// The unchosen pad must differ (Δ is never zero w.h.p.).
		if bytes.Equal(si[2*j+1-c][:], ri[j].Seed[:]) {
			t.Fatalf("instance %d: receiver can see both pads", j)
		}
	}
	if choiceCounts[0] < 150 || choiceCounts[1] < 150 {
		t.Errorf("extension choices biased: %v", choiceCounts)
	}
}

func TestExtensionFreshAcrossCalls(t *testing.T) {
	s, r, closeFn := newExtPair(t, 2)
	defer closeFn()
	a1, _ := extendPair(t, s, r, 64)
	a2, _ := extendPair(t, s, r, 64)
	if bytes.Equal(a1[0][:], a2[0][:]) {
		t.Error("successive Extend calls reuse keystream")
	}
}

func TestCombineROTs(t *testing.T) {
	s, r, closeFn := newExtPair(t, 3)
	defer closeFn()
	si, ri := extendPair(t, s, r, 8)
	// Combine pairs into 1-of-4 correlations.
	h := new(hasher)
	for k := 0; k < 4; k++ {
		cs := make([][SeedLen]byte, 4)
		h.combineSend(cs, si[4*k:4*k+4], 2)
		var crs [1]RecvInst
		h.combineRecv(crs[:], ri[2*k:2*k+2], 2)
		cr := crs[0]
		if cr.Choice < 0 || cr.Choice > 3 {
			t.Fatalf("combined choice %d", cr.Choice)
		}
		if !bytes.Equal(cs[cr.Choice][:], cr.Seed[:]) {
			t.Fatal("combined correlation inconsistent")
		}
		for c := 0; c < 4; c++ {
			if c != cr.Choice && bytes.Equal(cs[c][:], cr.Seed[:]) {
				t.Fatal("combined receiver sees an unchosen pad")
			}
		}
	}
}

// xorLeak reports a receiver choice c and a non-empty subset of the other
// candidates (bit i of mask selects the i-th of them) whose seeds XOR to
// zero or to seed c. A receiver holding seed c would then learn the XOR of
// those unchosen messages.
func xorLeak(seeds [][SeedLen]byte) (c, mask int, found bool) {
	n := len(seeds)
	for c = 0; c < n; c++ {
		others := make([]int, 0, n-1)
		for o := range seeds {
			if o != c {
				others = append(others, o)
			}
		}
		for mask = 1; mask < 1<<(n-1); mask++ {
			var x [SeedLen]byte
			for i, o := range others {
				if mask>>i&1 == 1 {
					x = xor16(x, seeds[o])
				}
			}
			if x == [SeedLen]byte{} || x == seeds[c] {
				return c, mask, true
			}
		}
	}
	return 0, 0, false
}

// TestCombinerHidesUnchosen checks the combined 1-of-4 and 1-of-8 seeds for
// a linear leak: for every receiver choice, no XOR of a non-empty subset of
// the unchosen candidates may equal zero or the chosen seed. As a power
// check, a combiner that XORs the per-component hashes without the
// candidate in the tweak must fail it: its pads of 01, 10 and 11 XOR to the
// pad of 00.
func TestCombinerHidesUnchosen(t *testing.T) {
	h := new(hasher)
	xorOnly := func(dst, raw [][SeedLen]byte) {
		for c := range dst {
			var seed [SeedLen]byte
			for b := range len(raw) / 2 {
				seed = xor16(seed, refHash(raw[2*b+(c>>b)&1], tagComb, 0, uint64(b)))
			}
			dst[c] = seed
		}
	}
	g := prg.NewSeeded(61)
	for _, n := range []int{4, 8} {
		tc, _ := log2Arity(n)
		for trial := 0; trial < 10; trial++ {
			snd, _ := Deal(g, 2, tc)
			seeds := make([][SeedLen]byte, n)
			h.combineSend(seeds, snd, tc)
			if c, mask, found := xorLeak(seeds); found {
				t.Errorf("N=%d trial %d: choice %d, unchosen subset %#b XORs to zero or the chosen seed", n, trial, c, mask)
			}
			xorOnly(seeds, snd)
			if _, _, found := xorLeak(seeds); !found {
				t.Errorf("N=%d trial %d: the XOR-only combiner passes the check", n, trial)
			}
		}
	}
}

func TestExtensionBackedEndpoints(t *testing.T) {
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	e0 := NewEndpoint(0, a, prg.NewSeeded(4))
	e0.HarvestGroup = TestGroup()
	e0.UseExtension = true
	e1 := NewEndpoint(1, b, prg.NewSeeded(5))
	e1.HarvestGroup = TestGroup()
	e1.UseExtension = true

	count := 300
	msgs := make([][][]byte, count)
	choices := make([]int, count)
	g := prg.NewSeeded(6)
	for k := range msgs {
		msgs[k] = [][]byte{{byte(k)}, {byte(k + 1)}, {byte(k + 2)}, {byte(k + 3)}}
		choices[k] = g.Intn(4)
	}
	var got []byte
	var errS, errR error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); errS = e0.Send1ofN(4, 1, flatten(msgs)) }()
	go func() { defer wg.Done(); got, errR = e1.Recv1ofN(4, choices, 1) }()
	wg.Wait()
	if errS != nil || errR != nil {
		t.Fatal(errS, errR)
	}
	for k := range got {
		if got[k] != byte(k+choices[k]) {
			t.Fatalf("instance %d wrong message", k)
		}
	}
	// Reverse direction initializes its own extender lazily.
	msgs2 := make([][][]byte, 8)
	choices2 := make([]int, 8)
	for k := range msgs2 {
		msgs2[k] = [][]byte{{byte(10 + k)}, {byte(20 + k)}}
		choices2[k] = k % 2
	}
	wg.Add(2)
	go func() { defer wg.Done(); errS = e1.Send1ofN(2, 1, flatten(msgs2)) }()
	go func() { defer wg.Done(); got, errR = e0.Recv1ofN(2, choices2, 1) }()
	wg.Wait()
	if errS != nil || errR != nil {
		t.Fatal(errS, errR)
	}
	for k := range got {
		want := byte(10 + k)
		if choices2[k] == 1 {
			want = byte(20 + k)
		}
		if got[k] != want {
			t.Fatalf("reverse instance %d wrong", k)
		}
	}
}

// TestExtensionValidation: both constructors reject every κ but ExtKappa
// before any traffic (κ = 8 would leave a 256-guess Δ, and κ = 256 would
// not fit the one-block row hash); a constructor that let one through
// would block on a peer that is not there.
func TestExtensionValidation(t *testing.T) {
	for _, kappa := range []int{0, 8, 13, 64, 120, 136, 256} {
		for _, side := range []struct {
			name string
			ctor func(transport.Conn) error
		}{
			{"sender", func(c transport.Conn) error {
				_, err := NewExtSender(c, TestGroup(), prg.NewSeeded(7), kappa)
				return err
			}},
			{"receiver", func(c transport.Conn) error {
				_, err := NewExtReceiver(c, TestGroup(), prg.NewSeeded(7), kappa)
				return err
			}},
		} {
			a, b := transport.Pipe()
			done := make(chan error, 1)
			go func() { done <- side.ctor(a) }()
			select {
			case err := <-done:
				if err == nil {
					t.Errorf("%s accepted κ = %d", side.name, kappa)
				}
			case <-time.After(5 * time.Second):
				t.Errorf("%s ran the base phase at κ = %d instead of rejecting it", side.name, kappa)
			}
			if sent := a.Stats().MsgsSent; sent != 0 {
				t.Errorf("%s sent %d messages before rejecting κ = %d", side.name, sent, kappa)
			}
			a.Close()
			b.Close()
		}
	}
	// An endpoint built without a group (any but a plane set-up's) cannot
	// start a public-key base phase: the sender side refuses before any
	// traffic instead of dereferencing a nil modulus.
	a, b := transport.Pipe()
	if _, err := NewExtReceiver(a, Group{}, prg.NewSeeded(7), ExtKappa); err == nil || a.Stats().MsgsSent != 0 {
		t.Errorf("receiver with no group: %v after %d messages", err, a.Stats().MsgsSent)
	}
	a.Close()
	b.Close()
	for _, n := range []int{0, 1, 3, 512} {
		if _, err := log2Arity(n); err == nil {
			t.Errorf("arity %d accepted", n)
		}
	}
	if v, _ := log2Arity(8); v != 3 {
		t.Errorf("log2Arity(8) = %d", v)
	}
	s, r, closeFn := newExtPair(t, 8)
	defer closeFn()
	if _, err := s.Extend(0); err == nil {
		t.Error("zero extension accepted")
	}
	if _, err := r.Extend(-1); err == nil {
		t.Error("negative extension accepted")
	}
}

// BenchmarkExtension1of2 times one extend pair of 4,096 OTs; any error of
// the base phase or of an extend call fails it.
func BenchmarkExtension1of2(b *testing.B) {
	s, r, closeFn := newExtPair(b, 9)
	defer closeFn()
	const m = 4096
	b.SetBytes(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		extendPair(b, s, r, m)
	}
}

// checkBaseRelation requires the OT relation of κ base OTs: the receiver's
// seed for column i is the sender's seed its choice bit Δᵢ selects, and
// differs from the other one.
func checkBaseRelation(t *testing.T, what string, pairs [][2][SeedLen]byte, delta []byte, seeds [][SeedLen]byte) {
	t.Helper()
	if len(pairs) != ExtKappa || len(seeds) != ExtKappa || len(delta) != ExtKappa/8 {
		t.Fatalf("%s: %d pairs, %d seeds, %d Δ bytes", what, len(pairs), len(seeds), len(delta))
	}
	for i := range pairs {
		c := bitOf(delta, i)
		if pairs[i][c] != seeds[i] || pairs[i][1-c] == seeds[i] {
			t.Fatalf("%s: column %d breaks the OT relation", what, i)
		}
	}
}

// checkExtension extends m OTs on a started direction and requires each
// to satisfy the OT relation.
func checkExtension(t *testing.T, what string, s *ExtSender, r *ExtReceiver, m int) {
	t.Helper()
	si, ri := extendPair(t, s, r, m)
	for j, v := range ri {
		if si[2*j+v.Choice] != v.Seed || si[2*j+1-v.Choice] == v.Seed {
			t.Fatalf("%s: extended OT %d breaks the OT relation", what, j)
		}
	}
}

// TestReverseExtension starts an endpoint pair's first IKNP direction by
// a public-key set-up and bootstraps the second from κ OTs extended in
// the first, in both orders. The bootstrapped base OTs must satisfy the
// OT relation, and so must what the direction they start extends, and no
// bootstrap seed reaches either endpoint's stock.
func TestReverseExtension(t *testing.T) {
	for _, first := range []int{0, 1} {
		a, b := transport.Pipe()
		eps := [2]*Endpoint{NewEndpoint(0, a, prg.NewSeeded(211)), NewEndpoint(1, b, prg.NewSeeded(212))}
		for _, e := range eps {
			e.HarvestGroup = TestGroup()
		}
		g := prg.NewSeeded(213)
		transferPair(t, g, eps[first], eps[1-first], 40)
		transferPair(t, g, eps[1-first], eps[first], 40)
		// The reverse direction's sender is party 1-first: its Δ and seeds
		// came from its receiver view of the first direction.
		rs, rr := eps[1-first].extS, eps[first].extR
		checkBaseRelation(t, "bootstrap", rr.pairs, rs.delta, rs.seeds)
		checkExtension(t, "bootstrapped direction", rs, rr, 300)

		// The bootstrap counts on its own counter, in the first direction
		// only. Stock extends: one refill per direction, plus
		// checkExtension's in the bootstrapped one.
		for p, e := range eps {
			peer := eps[1-p]
			want := [2]uint64{1, 1} // indexed domStock, domBase
			if p != first {
				want = [2]uint64{2, 0}
			}
			if e.extS.counter != want || peer.extR.counter != want {
				t.Errorf("first %d: party %d sending: counters %v and %v, want %v",
					first, p, e.extS.counter, peer.extR.counter, want)
			}
		}

		// No bootstrap seed is in either stock.
		base := map[[SeedLen]byte]bool{}
		for _, p := range rr.pairs {
			base[p[0]], base[p[1]] = true, true
		}
		for _, e := range eps {
			for _, st := range e.sendStock {
				for _, s := range st {
					if base[s] {
						t.Fatalf("first %d: a base seed reached party %d's sender stock", first, e.Party)
					}
				}
			}
			for _, st := range e.recvStock {
				for _, v := range st {
					if base[v.Seed] {
						t.Fatalf("first %d: a base seed reached party %d's receiver stock", first, e.Party)
					}
				}
			}
		}
		a.Close()
		b.Close()
	}
}
