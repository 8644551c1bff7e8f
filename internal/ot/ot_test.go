package ot

import (
	"bytes"
	"crypto/aes"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"aq2pnn/internal/prg"
	"aq2pnn/internal/transport"
)

// flatten lays candidate messages out as the flat slab Send1ofN and
// SendPre take: instance-major, then candidate. It copies, so the caller's
// messages survive the in-place encryption.
func flatten(msgs [][][]byte) []byte {
	var out []byte
	for _, inst := range msgs {
		for _, m := range inst {
			out = append(out, m...)
		}
	}
	return out
}

func runPair(t *testing.T, sender func(transport.Conn) error, receiver func(transport.Conn) error) {
	t.Helper()
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	var wg sync.WaitGroup
	var errS, errR error
	wg.Add(2)
	go func() { defer wg.Done(); errS = sender(a) }()
	go func() { defer wg.Done(); errR = receiver(b) }()
	wg.Wait()
	if errS != nil {
		t.Fatalf("sender: %v", errS)
	}
	if errR != nil {
		t.Fatalf("receiver: %v", errR)
	}
}

func TestFlow1of2(t *testing.T) {
	msgs := [][][]byte{
		{[]byte("zero-msg"), []byte("one-msgg")},
		{[]byte("aaaaaaaa"), []byte("bbbbbbbb")},
	}
	choices := []int{1, 0}
	var got [][]byte
	runPair(t,
		func(c transport.Conn) error { return FlowSend(c, TestGroup(), prg.NewSeeded(1), 2, msgs) },
		func(c transport.Conn) error {
			var err error
			got, err = FlowRecv(c, prg.NewSeeded(2), 2, choices, 8)
			return err
		})
	if !bytes.Equal(got[0], msgs[0][1]) || !bytes.Equal(got[1], msgs[1][0]) {
		t.Fatalf("wrong messages: %q %q", got[0], got[1])
	}
}

func TestFlow1of4AllChoices(t *testing.T) {
	n := 4
	count := 16
	g := prg.NewSeeded(3)
	msgs := make([][][]byte, count)
	choices := make([]int, count)
	for k := range msgs {
		msgs[k] = make([][]byte, n)
		for l := range msgs[k] {
			m := make([]byte, 3)
			g.Read(m)
			msgs[k][l] = m
		}
		choices[k] = k % n
	}
	var got [][]byte
	runPair(t,
		func(c transport.Conn) error { return FlowSend(c, TestGroup(), prg.NewSeeded(4), n, msgs) },
		func(c transport.Conn) error {
			var err error
			got, err = FlowRecv(c, prg.NewSeeded(5), n, choices, 3)
			return err
		})
	for k := range msgs {
		if !bytes.Equal(got[k], msgs[k][choices[k]]) {
			t.Fatalf("instance %d: got %x want %x", k, got[k], msgs[k][choices[k]])
		}
	}
}

func TestFlowUnchosenMessagesUnrecoverable(t *testing.T) {
	// The receiver must not obtain the unchosen message: decrypting the
	// wrong slot with its key yields garbage. We simulate by checking the
	// two ciphertext slots differ from each other under the honest key.
	msgs := [][][]byte{{make([]byte, 16), make([]byte, 16)}} // both all-zero
	var got [][]byte
	runPair(t,
		func(c transport.Conn) error { return FlowSend(c, TestGroup(), prg.NewSeeded(6), 2, msgs) },
		func(c transport.Conn) error {
			var err error
			got, err = FlowRecv(c, prg.NewSeeded(7), 2, []int{0}, 16)
			return err
		})
	if !bytes.Equal(got[0], msgs[0][0]) {
		t.Fatal("chosen message wrong")
	}
	// Run again capturing raw traffic to confirm the other slot's pad is
	// independent: with identical plaintexts the ciphertext slots differ.
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() { done <- FlowSend(a, TestGroup(), prg.NewSeeded(8), 2, msgs) }()
	hdr, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	h, err := decodeFlowHeader(hdr)
	if err != nil {
		t.Fatal(err)
	}
	// Honest receiver behaviour for choice 0.
	rng := prg.NewSeeded(9)
	rj := h.group.RandScalar(rng)
	r := h.group.Encode(h.group.Exp(h.rHat, h.labels[0]))
	subtle.XORBytes(r, r, h.group.Encode(h.group.ExpG(rj)))
	if err := b.Send(r); err != nil {
		t.Fatal(err)
	}
	cts, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(cts[:16], cts[16:32]) {
		t.Error("ciphertexts of identical plaintexts are equal: pads are not independent")
	}
}

func TestFlowErrors(t *testing.T) {
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	if err := FlowSend(a, TestGroup(), prg.NewSeeded(1), 1, [][][]byte{{{1}}}); err == nil {
		t.Error("N=1 should fail")
	}
	if err := FlowSend(a, TestGroup(), prg.NewSeeded(1), 2, [][][]byte{{{1}, {2, 3}}}); err == nil {
		t.Error("mixed lengths should fail")
	}
	go FlowSend(a, TestGroup(), prg.NewSeeded(1), 2, [][][]byte{{{1}, {2}}})
	if _, err := FlowRecv(b, prg.NewSeeded(2), 2, []int{5}, 1); err == nil {
		t.Error("out-of-range choice should fail")
	}
}

func TestDealPadConsistency(t *testing.T) {
	g := prg.NewSeeded(10)
	snd, rcv := Deal(g, 4, 50)
	for k := range rcv {
		c := rcv[k].Choice
		ps, pr := make([]byte, 32), make([]byte, 32)
		PadInto(ps, snd[k*4+c])
		PadInto(pr, rcv[k].Seed)
		if !bytes.Equal(ps, pr) {
			t.Fatalf("instance %d: pads disagree", k)
		}
	}
	// Choices should be roughly uniform.
	counts := make([]int, 4)
	_, rcv2 := Deal(g, 4, 4000)
	for _, r := range rcv2 {
		counts[r.Choice]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("choice %d count %d of 4000", i, c)
		}
	}
}

func TestPrecomputedOnline(t *testing.T) {
	g := prg.NewSeeded(11)
	n, count := 4, 32
	snd, rcv := Deal(g, n, count)
	msgs := make([][][]byte, count)
	choices := make([]int, count)
	for k := range msgs {
		msgs[k] = make([][]byte, n)
		for l := range msgs[k] {
			m := make([]byte, 5)
			g.Read(m)
			msgs[k][l] = m
		}
		choices[k] = g.Intn(n)
	}
	var got []byte
	runPair(t,
		func(c transport.Conn) error { return SendPre(c, nil, snd, n, 5, flatten(msgs)) },
		func(c transport.Conn) error {
			var err error
			got, err = RecvPre(c, nil, rcv, n, choices, 5)
			return err
		})
	for k := range msgs {
		if !bytes.Equal(got[k*5:(k+1)*5], msgs[k][choices[k]]) {
			t.Fatalf("instance %d wrong message", k)
		}
	}
}

func TestPrecomputedOnlineCommCost(t *testing.T) {
	// Online traffic must be 1 byte (shift) + N·msgLen per instance —
	// that is the whole point of precomputation.
	g := prg.NewSeeded(12)
	n, count, msgLen := 2, 100, 2
	snd, rcv := Deal(g, n, count)
	msgs := make([][][]byte, count)
	choices := make([]int, count)
	for k := range msgs {
		msgs[k] = [][]byte{{1, 2}, {3, 4}}
		choices[k] = k % 2
	}
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); SendPre(a, nil, snd, n, msgLen, flatten(msgs)) }()
	go func() { defer wg.Done(); RecvPre(b, nil, rcv, n, choices, msgLen) }()
	wg.Wait()
	if got := a.Stats().BytesSent; got != uint64(count*n*msgLen) {
		t.Errorf("sender online bytes = %d, want %d", got, count*n*msgLen)
	}
	if got := b.Stats().BytesSent; got != uint64(count) {
		t.Errorf("receiver online bytes = %d, want %d", got, count)
	}
}

func TestEndpointsWithDealer(t *testing.T) {
	dealer := NewDealer(prg.NewSeeded(15))
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	e0 := NewEndpoint(0, a, prg.NewSeeded(16))
	e0.Dealer = dealer
	e1 := NewEndpoint(1, b, prg.NewSeeded(17))
	e1.Dealer = dealer

	count := 2000 // force a stock refill past minChunk
	msgs := make([][][]byte, count)
	choices := make([]int, count)
	g := prg.NewSeeded(18)
	for k := range msgs {
		msgs[k] = [][]byte{{byte(k)}, {byte(k + 1)}}
		choices[k] = g.Intn(2)
	}
	var got []byte
	var wg sync.WaitGroup
	var errS, errR error
	wg.Add(2)
	go func() { defer wg.Done(); errS = e0.Send1ofN(2, 1, flatten(msgs)) }()
	go func() { defer wg.Done(); got, errR = e1.Recv1ofN(2, choices, 1) }()
	wg.Wait()
	if errS != nil || errR != nil {
		t.Fatal(errS, errR)
	}
	for k := range got {
		if got[k] != byte(k+choices[k]) {
			t.Fatalf("instance %d wrong", k)
		}
	}
	// Reverse direction must use independent correlations.
	wg.Add(2)
	go func() { defer wg.Done(); errS = e1.Send1ofN(2, 1, flatten(msgs[:4])) }()
	go func() { defer wg.Done(); got, errR = e0.Recv1ofN(2, choices[:4], 1) }()
	wg.Wait()
	if errS != nil || errR != nil {
		t.Fatal(errS, errR)
	}
	for k := range got {
		if got[k] != byte(k+choices[k]) {
			t.Fatalf("reverse instance %d wrong", k)
		}
	}
}

// TestDealerStreamIndependentOfTakes: the k-th sender and receiver views
// of one (direction, arity) stream are the same whether the stream is
// taken whole or in pieces of any size, appended to a stock that holds
// leftovers, by one goroutine or by both parties' goroutines at once, the
// sender's first or the receiver's; and each receiver view holds the
// sender's chosen seed.
func TestDealerStreamIndependentOfTakes(t *testing.T) {
	const n = 4
	sizes := []int{1, 7, 63, 64, 65, 1024, 5000}
	total := 0
	for _, c := range sizes {
		total += c
	}
	// Each stream's sender view takes one order of sizes, its receiver
	// view the other, so no view's split matches its peer's.
	reversed := slices.Clone(sizes)
	slices.Reverse(reversed)
	split := func(dir int, recv bool) []int {
		if dir == 0 != recv {
			return sizes
		}
		return reversed
	}
	whole := NewDealer(prg.NewSeeded(44))
	var wantS [2][][SeedLen]byte
	var wantR [2][]RecvInst
	for s := range 2 {
		wantS[s], wantR[s] = whole.TakeSender(nil, s, n, total), whole.TakeRecv(nil, s, n, total)
	}
	// take runs party p's side of both streams: the sender view of its own
	// direction and the receiver view of the other, each in its split,
	// behind one leftover entry.
	type views struct {
		snd [][SeedLen]byte
		rcv []RecvInst
	}
	take := func(d *Dealer, p int) views {
		v := views{snd: [][SeedLen]byte{{0xAA}}, rcv: []RecvInst{{Choice: -1}}}
		for _, c := range split(p, false) {
			v.snd = d.TakeSender(v.snd, p, n, c)
		}
		for _, c := range split(1-p, true) {
			v.rcv = d.TakeRecv(v.rcv, 1-p, n, c)
		}
		if v.snd[0] != [SeedLen]byte{0xAA} || v.rcv[0].Choice != -1 {
			t.Errorf("party %d: a take overwrote the stock's leftover", p)
		}
		v.snd, v.rcv = v.snd[1:], v.rcv[1:]
		return v
	}
	check := func(how string, got [2]views) {
		t.Helper()
		for s := range 2 {
			snd, rcv := got[s].snd, got[1-s].rcv
			if !slices.Equal(snd, wantS[s]) {
				t.Errorf("%s: direction %d sender views differ from one whole take", how, s)
			}
			if !slices.Equal(rcv, wantR[s]) {
				t.Errorf("%s: direction %d receiver views differ from one whole take", how, s)
			}
			for k := range rcv {
				if c := rcv[k].Choice; c < 0 || c >= n || snd[k*n+c] != rcv[k].Seed {
					t.Fatalf("%s: direction %d instance %d: receiver seed is not the chosen sender seed", how, s, k)
				}
			}
		}
	}
	for _, first := range []int{0, 1} {
		d := NewDealer(prg.NewSeeded(44))
		var got [2]views
		got[first] = take(d, first)
		got[1-first] = take(d, 1-first)
		check(fmt.Sprintf("party %d first", first), got)
	}
	for round := range 4 {
		d := NewDealer(prg.NewSeeded(44))
		var got [2]views
		var wg sync.WaitGroup
		for p := range 2 {
			wg.Add(1)
			go func() { defer wg.Done(); got[p] = take(d, p) }()
		}
		wg.Wait()
		check(fmt.Sprintf("concurrent round %d", round), got)
	}
}

// TestDealerKnownAnswer: instance i of the stream (sender s, arity n) is
// AES-128-CTR under the dealer's key, computed here with crypto/aes from
// the documented counter blocks: its seeds are the blocks ⟨1, s, n, 0⟩ ‖
// i·n+l, and its choice the first word of ⟨2, s, n, 0⟩ ‖ i mod n (no
// word of these few instances is rejected).
func TestDealerKnownAnswer(t *testing.T) {
	var key [SeedLen]byte
	prg.NewSeeded(47).Read(key[:])
	block, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	aesAt := func(dom byte, s, n int, lo uint64) (out [SeedLen]byte) {
		var in [SeedLen]byte
		in[0], in[1] = dom, byte(s)
		binary.BigEndian.PutUint16(in[2:], uint16(n))
		binary.BigEndian.PutUint64(in[8:], lo)
		block.Encrypt(out[:], in[:])
		return out
	}
	d := NewDealer(prg.NewSeeded(47))
	for _, tc := range []struct{ s, n, count int }{{0, 2, 300}, {1, 4, 300}, {0, 16, 40}, {1, 3, 20}} {
		snd := d.TakeSender(nil, tc.s, tc.n, tc.count)
		rcv := d.TakeRecv(nil, tc.s, tc.n, tc.count)
		for i := range tc.count {
			for l := range tc.n {
				if snd[i*tc.n+l] != aesAt(1, tc.s, tc.n, uint64(i*tc.n+l)) {
					t.Fatalf("s=%d n=%d: instance %d seed %d is not its keystream block", tc.s, tc.n, i, l)
				}
			}
			w := aesAt(2, tc.s, tc.n, uint64(i))
			c := int(binary.LittleEndian.Uint64(w[:]) % uint64(tc.n))
			if rcv[i] != (RecvInst{Choice: c, Seed: snd[i*tc.n+c]}) {
				t.Fatalf("s=%d n=%d: instance %d receiver view %v, want choice %d and its seed", tc.s, tc.n, i, rcv[i], c)
			}
		}
	}
}

// TestDealerChoiceRejection: a dealt choice is rejection-sampled exactly
// as prg.Intn samples: a word below the limit (the largest multiple of n
// that fits 64 bits) is taken mod n, a word at the limit or above is
// skipped for the next one, and a block of rejected words reports that it
// holds no choice.
func TestDealerChoiceRejection(t *testing.T) {
	words := func(ws ...uint64) []byte {
		b := make([]byte, 8*len(ws))
		for i, w := range ws {
			binary.LittleEndian.PutUint64(b[8*i:], w)
		}
		return b
	}
	const top = ^uint64(0)
	for _, n := range []int{1, 2, 3, 4, 7, 16, 256, 300} {
		limit := top / uint64(n) * uint64(n)
		for _, tc := range []struct {
			ws   []uint64
			want int
			ok   bool
		}{
			{[]uint64{limit - 1}, int((limit - 1) % uint64(n)), true},
			{[]uint64{limit - 1, 5}, int((limit - 1) % uint64(n)), true},
			{[]uint64{limit, 5}, 5 % n, true},
			{[]uint64{top, limit - 1}, int((limit - 1) % uint64(n)), true},
			{[]uint64{limit, top}, 0, false},
		} {
			c, ok := choiceOf(n, words(tc.ws...))
			if ok != tc.ok || (ok && c != tc.want) {
				t.Errorf("n=%d words %#x: choice %d ok %v, want %d ok %v", n, tc.ws, c, ok, tc.want, tc.ok)
			}
		}
	}
}

func TestEndpointTransportFailure(t *testing.T) {
	dealer := NewDealer(prg.NewSeeded(19))
	a, b := transport.Pipe()
	b.Close() // receiver side dead
	e0 := NewEndpoint(0, transport.NewFaults(transport.FaultPlan{}, nil).Wrap(a), prg.NewSeeded(20))
	e0.Dealer = dealer
	err := e0.Send1ofN(2, 1, []byte{1, 2})
	if !errors.Is(err, transport.ErrInjected) {
		t.Errorf("expected injected transport error, got %v", err)
	}
}

func TestGroupScalarRange(t *testing.T) {
	grp := TestGroup()
	g := prg.NewSeeded(21)
	for i := 0; i < 100; i++ {
		s := grp.RandScalar(g)
		if s.Sign() <= 0 || s.Cmp(grp.P) >= 0 {
			t.Fatal("scalar out of range")
		}
	}
	if grp.ElemBytes() != 8 {
		t.Errorf("TestGroup ElemBytes = %d", grp.ElemBytes())
	}
}

func TestDefaultGroupIsPrime(t *testing.T) {
	if testing.Short() {
		t.Skip("prime generation")
	}
	grp := DefaultGroup()
	if !grp.P.ProbablyPrime(20) {
		t.Error("DefaultGroup modulus is not prime")
	}
	if grp2 := DefaultGroup(); grp2.P.Cmp(grp.P) != 0 {
		t.Error("DefaultGroup not cached")
	}
}

func BenchmarkFlow1of4(b *testing.B) {
	msgs := make([][][]byte, 16)
	choices := make([]int, 16)
	for k := range msgs {
		msgs[k] = [][]byte{{1}, {2}, {3}, {4}}
		choices[k] = k % 4
	}
	for i := 0; i < b.N; i++ {
		a, c := transport.Pipe()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); FlowSend(a, TestGroup(), prg.NewSeeded(1), 4, msgs) }()
		go func() { defer wg.Done(); FlowRecv(c, prg.NewSeeded(2), 4, choices, 1) }()
		wg.Wait()
		a.Close()
		c.Close()
	}
}

func BenchmarkPrecomputedOnline1of4(b *testing.B) {
	g := prg.NewSeeded(1)
	count := 1024
	msgs := make([][][]byte, count)
	choices := make([]int, count)
	for k := range msgs {
		msgs[k] = [][]byte{{1}, {2}, {3}, {4}}
		choices[k] = k % 4
	}
	b.SetBytes(int64(count))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		snd, rcv := Deal(g, 4, count)
		cands := flatten(msgs)
		a, c := transport.Pipe()
		b.StartTimer()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); SendPre(a, nil, snd, 4, 1, cands) }()
		go func() { defer wg.Done(); RecvPre(c, nil, rcv, 4, choices, 1) }()
		wg.Wait()
		b.StopTimer()
		a.Close()
		c.Close()
		b.StartTimer()
	}
}
