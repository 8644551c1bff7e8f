package ot

import (
	"testing"

	"aq2pnn/internal/prg"
)

// tokenStep runs one coalesced 2-bit token transfer from snd to rcv with
// counts[n] instances of arity n, and checks every received token.
func tokenStep(t *testing.T, g *prg.PRG, snd, rcv *Endpoint, counts map[int]int) {
	t.Helper()
	var sb []SendTokenBatch
	var rb []RecvTokenBatch
	for _, n := range sortedArities(counts) {
		rows, choices := make([][]byte, counts[n]), make([]int, counts[n])
		for k := range rows {
			rows[k] = make([]byte, n)
			for l := range rows[k] {
				rows[k][l] = byte(g.Intn(4))
			}
			choices[k] = g.Intn(n)
		}
		sb = append(sb, SendTokenBatch{N: n, Rows: rows})
		rb = append(rb, RecvTokenBatch{N: n, Choices: choices})
	}
	var got [][]byte
	both(t,
		func() error { return snd.SendTokens(2, sb) },
		func() (err error) { got, err = rcv.RecvTokens(2, rb); return })
	for bi, b := range rb {
		for k, ch := range b.Choices {
			if got[bi][k] != sb[bi].Rows[k][ch] {
				t.Fatalf("arity %d instance %d: token %d, want %d", b.N, k, got[bi][k], sb[bi].Rows[k][ch])
			}
		}
	}
}

// stockBase is the first element of a stock's backing array, or nil
// when it has none.
func stockBase[T any](s []T) *T {
	if cap(s) == 0 {
		return nil
	}
	return &s[:cap(s)][0]
}

// TestStockReusedAcrossSteps: a derived endpoint's stocks grow to the
// largest step once, and a second equal step refills them in place, in
// both the sender's and the receiver's stock.
func TestStockReusedAcrossSteps(t *testing.T) {
	_, planes := planePair(t)
	eps, _ := derivedPair(t, planes, 5, OnlineHalf)
	g := prg.NewSeeded(331)
	step := map[int]int{4: minChunk}
	tokenStep(t, g, eps[0], eps[1], step)
	snd, rcv := stockBase(eps[0].sendStock[4]), stockBase(eps[1].recvStock[4])
	if snd == nil || rcv == nil {
		t.Fatal("a step that used its whole refill left the stock without capacity")
	}
	tokenStep(t, g, eps[0], eps[1], step)
	if stockBase(eps[0].sendStock[4]) != snd {
		t.Error("the second equal step reallocated the sender's stock")
	}
	if stockBase(eps[1].recvStock[4]) != rcv {
		t.Error("the second equal step reallocated the receiver's stock")
	}
}

// TestStockStepsPinned runs token steps of ascending then descending
// sizes over three arities, alternating direction, so that refills land
// on stocks holding leftovers of every size. Compacting a stock must
// not change which correlation serves which instance: the transcript
// equals the one captured when consumed stock was resliced away.
func TestStockStepsPinned(t *testing.T) {
	_, planes := planePair(t)
	eps, dc := derivedPair(t, planes, 9, OnlineHalf)
	g := prg.NewSeeded(332)
	for i, c := range []int{30, 200, 700, 1500, 2600, 1100, 400, 90, 5} {
		counts := map[int]int{2: c, 4: c/2 + 1, 16: c / 3}
		if c/3 == 0 {
			delete(counts, 16)
		}
		snd, rcv := eps[i%2], eps[1-i%2]
		tokenStep(t, g, snd, rcv, counts)
	}
	const wantSent, wantRecv uint64 = 0x9b7952c879ac3ba8, 0xb4643da7f4597084
	if dc.sent.sum != wantSent || dc.recv.sum != wantRecv {
		t.Errorf("transcript sent %#016x (%d frames), recv %#016x (%d frames); pinned %#016x, %#016x",
			dc.sent.sum, dc.sent.frames, dc.recv.sum, dc.recv.frames, wantSent, wantRecv)
	}
}
