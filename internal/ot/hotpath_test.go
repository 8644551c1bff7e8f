package ot

import (
	"bytes"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"aq2pnn/internal/parallel"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/transport"
)

// naiveTranspose is the bit-by-bit definition transposeBlock must match.
func naiveTranspose(cols []byte, m int) []byte {
	const rowLen = ExtKappa / 8
	nBytes := (m + 7) / 8
	rows := make([]byte, m*rowLen)
	for j := 0; j < m; j++ {
		for i := 0; i < ExtKappa; i++ {
			rows[j*rowLen+i/8] |= bitOf(cols[i*nBytes:(i+1)*nBytes], j) << (i % 8)
		}
	}
	return rows
}

// transposeAll turns every row block of the κ columns into rows, one
// transposeBlock call per block, into a slab first filled with 0xA5 so that
// a row byte left unwritten shows.
func transposeAll(cols []byte, m int) []byte {
	const rowLen = ExtKappa / 8
	rows := bytes.Repeat([]byte{0xA5}, m*rowLen)
	for rb := 0; rb*rowBlock < m; rb++ {
		transposeBlock(rows[rb*rowBlock*rowLen:], cols, m, rb)
	}
	return rows
}

func TestTransposeBitsMatchesBitwise(t *testing.T) {
	g := prg.NewSeeded(41)
	for _, m := range []int{1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 1000, 4097} {
		cols := make([]byte, ExtKappa*((m+7)/8))
		g.Read(cols)
		if !bytes.Equal(transposeAll(cols, m), naiveTranspose(cols, m)) {
			t.Errorf("m=%d: block transpose differs from the bitwise one", m)
		}
	}
}

// BenchmarkTransposeBlock times the IKNP transpose of 2^17 rows at κ =
// ExtKappa, one 64-row block at a time into one hasher's staging.
func BenchmarkTransposeBlock(b *testing.B) {
	const m = 1 << 17
	cols := make([]byte, ExtKappa*m/8)
	prg.NewSeeded(44).Read(cols)
	h := new(hasher)
	b.SetBytes(int64(len(cols)))
	for i := 0; i < b.N; i++ {
		for rb := 0; rb*rowBlock < m; rb++ {
			transposeBlock(h.rows[:], cols, m, rb)
		}
	}
}

var (
	seedSink [SeedLen]byte
	byteSink byte
)

// TestOTHotPathAllocs is the OT plane's allocation gate, mirroring
// TestHotKernelsAllocFree: the IKNP transpose writes one row block into a
// hasher's staging, and the row hashes, both combiners (the sender's over
// the flat seed slab extend returns) and the pads stage their batches in a
// reused hasher, so in the forms the hot loops call them none of them
// allocates. A 1-byte pad is a token's (read through shortPad, with no
// hasher), 16 bytes an online share's, 240 bytes an fc1 Gilboa message's
// on a 16-bit ring, and 8,200 bytes spans many staging batches.
func TestOTHotPathAllocs(t *testing.T) {
	const m = 1000
	g := prg.NewSeeded(42)
	cols := make([]byte, ExtKappa*((m+7)/8))
	g.Read(cols)
	rows := make([]byte, m*ExtKappa/8)
	g.Read(rows)
	delta := make([]byte, ExtKappa/8)
	raw, rcv := Deal(g, 2, 8)
	seeds := make([][SeedLen]byte, 2*m)
	recv := make([]RecvInst, m)
	pad16, pad240, pad8200 := make([]byte, 16), make([]byte, 240), make([]byte, 8200)
	h := new(hasher)
	for name, f := range map[string]func(){
		"transposeBlock":     func() { transposeBlock(h.rows[:], cols, m, m/rowBlock) },
		"rowHashesRecv/1":    func() { h.rowHashesRecv(recv[:1], rows[:ExtKappa/8], tagRow, 7, 3) },
		"rowHashesRecv/1000": func() { h.rowHashesRecv(recv, rows, tagRow, 7, 0) },
		"rowHashesSend/1000": func() { h.rowHashesSend(seeds, rows, delta, tagRow, 7, 0) },
		"combineSend":        func() { h.combineSend(seeds[:1<<8], raw, 8) },
		"combineRecv":        func() { h.combineRecv(recv[:1], rcv, 8) },
		"shortPad/1":         func() { byteSink = shortPad(&seedSink, 1)[0] },
		"padXor/1": func() {
			var pad [1]byte
			h.padXor(pad[:], seedSink)
			byteSink = pad[0]
		},
		"padXor/16":   func() { h.padXor(pad16, seedSink) },
		"padXor/240":  func() { h.padXor(pad240, seedSink) },
		"padXor/8200": func() { h.padXor(pad8200, seedSink) },
	} {
		if n := testing.AllocsPerRun(5, f); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, n)
		}
	}
}

// TestDealerRefillAllocs: once a dealer-backed endpoint's stocks have
// grown to a step's size, refilling them for the same step again
// allocates nothing, on the sender's side or on the receiver's.
func TestDealerRefillAllocs(t *testing.T) {
	d := NewDealer(prg.NewSeeded(46))
	snd, rcv := NewEndpoint(0, nil, nil), NewEndpoint(1, nil, nil)
	snd.Dealer, rcv.Dealer = d, d
	needs := map[int]int{2: 3000, 4: 1500, 16: 200}
	var err error
	step := func() {
		if e := snd.refillSend(needs); e != nil {
			err = e
		}
		if e := rcv.refillRecv(needs); e != nil {
			err = e
		}
		for n := range needs {
			snd.sendStock[n] = consume(snd.sendStock[n], len(snd.sendStock[n]))
			rcv.recvStock[n] = consume(rcv.recvStock[n], len(rcv.recvStock[n]))
		}
	}
	step()
	if a := testing.AllocsPerRun(10, step); a != 0 {
		t.Errorf("a repeated dealer refill allocated %.1f times, want 0", a)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvPreRejectsWideArity: the shift travels as one byte, so N > 256
// must fail before any traffic — a truncated shift would leave the
// receiver waiting on a sender that rejected the batch without answering.
func TestRecvPreRejectsWideArity(t *testing.T) {
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	_, rcv := Deal(prg.NewSeeded(43), 300, 1)
	done := make(chan error, 1)
	go func() {
		_, err := RecvPre(b, nil, rcv, 300, []int{299}, 4)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("RecvPre accepted N = 300")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RecvPre blocked instead of rejecting N = 300")
	}
	if sent := b.Stats().MsgsSent; sent != 0 {
		t.Errorf("RecvPre sent %d messages before rejecting N = 300", sent)
	}
}

// TestExtendAllocs is the extension's allocation guard: one extend pair of
// m OTs on endpoints derived from a plane allocates the call's frames,
// results and goroutines, a constant, and nothing per column, since each
// column key was built with the plane and the column matrices come from
// colSlab. m = 1000 gives every column a partial tail block, which the
// one-block fallback (no AES-NI kernel) encrypts in its hasher's scratch,
// so the bound is the same with the kernel and without.
func TestExtendAllocs(t *testing.T) {
	_, planes := planePair(t)
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	s := planes[0].Derive(a, prg.NewSeeded(311), 0, KitHalf).extS
	r := planes[1].Derive(b, prg.NewSeeded(312), 0, KitHalf).extR
	const m, perPair = 1000, 32
	if n := testing.AllocsPerRun(10, func() { extendPair(t, s, r, m) }); n > perPair {
		t.Errorf("extend pair of %d OTs: %v allocs, want at most %v", m, n, perPair)
	} else {
		t.Logf("extend pair of %d OTs: %v allocs", m, n)
	}
}

// TestExtendSlabHygiene runs one extend pair of m OTs twice on identically
// derived endpoints over the GOMAXPROCS pool: first on emptied slabs, so
// on fresh zeroed buffers, then with every extension slab stocked with
// 0xFF buffers of the sizes the pair asks for. The parties talk through
// framed conns over an in-memory net.Pipe, so the sender receives its
// u-frame into a colSlab buffer (transport.RecvInto), stocked like the
// column matrices. The sender's seeds, the receiver's choices and seeds
// and the u-frame must be bit-identical: the extension must overwrite
// every recycled byte it reads. The second run must also draw its results
// from the stocked buffers, so the comparison covers recycled memory; GC
// is off while they are stocked, since a collection empties the slabs.
func TestExtendSlabHygiene(t *testing.T) {
	_, planes := planePair(t)
	const m = 1000
	pool := parallel.New(0)
	run := func() ([][SeedLen]byte, []RecvInst, []byte) {
		ca, cb := net.Pipe()
		a, b := transport.NewNetConn(ca), transport.NewNetConn(cb)
		defer a.Close()
		defer b.Close()
		rec := &recordConn{Conn: b}
		s := planes[0].Derive(a, prg.NewSeeded(321), 0, KitHalf).extS
		r := planes[1].Derive(rec, prg.NewSeeded(322), 0, KitHalf).extR
		var si [][SeedLen]byte
		var ri []RecvInst
		both(t,
			func() (err error) { si, err = s.extend(pool, domStock, m); return },
			func() (err error) { ri, err = r.extend(pool, domStock, m); return })
		if len(rec.sent) != 1 {
			t.Fatalf("receiver sent %d frames, want the u-frame alone", len(rec.sent))
		}
		return si, ri, rec.sent[0]
	}
	emptySlabs := func() { runtime.GC(); runtime.GC() }

	emptySlabs()
	wantS, wantR, wantU := run()
	emptySlabs()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// A pair takes four column-sized buffers (the sender's u-frame and q
	// columns, the receiver's t columns and u-frame) and one buffer from
	// each result slab. The slabs are stocked well past that: under the
	// race detector sync.Pool drops a quarter of Puts at random, and a
	// lone survivor in another P's private slot cannot be stolen.
	const copies = 16
	var seedBufs, instBufs []*[SeedLen]byte
	for range copies {
		colSlab.Put(bytes.Repeat([]byte{0xFF}, ExtKappa*((m+7)/8)))
		sb, ib := make([][SeedLen]byte, 2*m), make([]RecvInst, m)
		for i := range sb {
			sb[i] = [SeedLen]byte(bytes.Repeat([]byte{0xFF}, SeedLen))
		}
		for i := range ib {
			ib[i] = RecvInst{Choice: -1, Seed: sb[0]}
		}
		seedBufs, instBufs = append(seedBufs, &sb[0]), append(instBufs, &ib[0].Seed)
		seedSlab.Put(sb)
		instSlab.Put(ib)
	}
	gotS, gotR, gotU := run()
	if !slices.Contains(seedBufs, &gotS[0]) || !slices.Contains(instBufs, &gotR[0].Seed) {
		t.Fatal("the second extend pair did not draw its results from the stocked slabs")
	}
	if !slices.Equal(gotS, wantS) {
		t.Error("sender seeds differ on recycled buffers")
	}
	if !slices.Equal(gotR, wantR) {
		t.Error("receiver choices or seeds differ on recycled buffers")
	}
	if !bytes.Equal(gotU, wantU) {
		t.Error("u-frame differs on recycled buffers")
	}
}
