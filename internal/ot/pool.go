package ot

import (
	"crypto/aes"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"aq2pnn/internal/parallel"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
)

// minChunk is the smallest refill batch: an IKNP refill mints at least
// this many instances per arity, and a dealer-backed endpoint takes at
// least this many. Both endpoints use the same policy, so IKNP refills stay
// in lockstep across the two processes without extra coordination traffic.
const minChunk = 1024

// Dealer is the in-process trusted offline phase: it deals matching
// sender/receiver views of random OT correlations to the two endpoints of
// a session. It is safe for concurrent use by both party goroutines.
//
// Each stream of correlations, a direction (the sending party) and an
// arity n, is AES-128-CTR under the dealer's one key in counter blocks of
// its own (dealHi): instance i's seeds are the keystream blocks
// i·n … i·n+n−1 of ⟨dealSeeds, sender, n⟩, and its choice is drawn from
// block i of ⟨dealChoice, sender, n, 0⟩ (choiceOf). So instance i is a
// function of the dealer's seed, the direction, the arity and i alone,
// whatever the take sizes and whichever party takes first. Each view
// keeps a cursor of its own and is dealt where it is taken, straight into
// the taking party's stock: the sender's view expands its instances'
// seeds, the receiver's only each instance's choice block and its chosen
// seed. The dealer's lock covers moving a cursor and lending a view's
// staging, never a deal.
type Dealer struct {
	key   colKey
	mu    sync.Mutex
	views map[dealView]*viewState
}

// dealView names one view of a stream: its direction (the sending party),
// its arity and whether it is the receiver's.
type dealView struct {
	sender, n int
	recv      bool
}

// viewState is a view's cursor, the next instance it deals, and its
// staging, lent to one take at a time (nil while lent).
type viewState struct {
	next uint64
	buf  *dealBuf
}

// dealBatch is the number of blocks a take expands or encrypts per call.
const dealBatch = 256

// dealBuf stages a take's keystream: dealBatch blocks, and as many
// counter blocks of the receiver's chosen seeds.
type dealBuf struct {
	ks, ctr [dealBatch * aes.BlockSize]byte
}

// Counter domains of the dealer's keystream, the top byte of a counter
// block's high word.
const (
	dealSeeds  = 1 // ⟨dealSeeds, sender, n, 0⟩ ‖ i·n+l: seed l of instance i
	dealChoice = 2 // ⟨dealChoice, sender, n, a⟩ ‖ i: attempt a at instance i's choice
)

// maxDealArity bounds a stream's arity: n fills 16 bits of the counter.
const maxDealArity = 1<<16 - 1

// NewDealer returns a dealer keyed by 16 bytes drawn from g.
func NewDealer(g *prg.PRG) *Dealer {
	var key [SeedLen]byte
	g.Read(key[:])
	return &Dealer{key: newColKey(key), views: map[dealView]*viewState{}}
}

// dealHi is the high word of the counter block ⟨dom, sender, n, a⟩: the
// domain in its top byte, the direction in the next, the arity in the 16
// bits below and the attempt in the low 32 bits.
func dealHi(dom byte, sender, n int, a uint32) uint64 {
	return uint64(dom)<<56 | uint64(sender&0xff)<<48 | uint64(n)<<32 | uint64(a)
}

// putCounter writes the counter block hi ‖ lo into blk, big-endian as
// crypto/cipher's CTR mode counts.
func putCounter(blk []byte, hi, lo uint64) {
	binary.BigEndian.PutUint64(blk[:8], hi)
	binary.BigEndian.PutUint64(blk[8:16], lo)
}

// dealIV is the counter block hi ‖ lo as an IV.
func dealIV(hi, lo uint64) (iv [aes.BlockSize]byte) {
	putCounter(iv[:], hi, lo)
	return iv
}

// reserve moves a view's cursor past count instances and returns the
// first of them, with the view's staging (a fresh one while another take
// of the view holds it).
func (d *Dealer) reserve(v dealView, count int) (uint64, *dealBuf) {
	if v.n < 1 || v.n > maxDealArity {
		panic(fmt.Sprintf("ot: dealer arity %d outside [1, %d]", v.n, maxDealArity))
	}
	d.mu.Lock()
	s := d.views[v]
	if s == nil {
		s = &viewState{buf: new(dealBuf)}
		d.views[v] = s
	}
	i0, buf := s.next, s.buf
	s.next += uint64(count)
	s.buf = nil
	d.mu.Unlock()
	if buf == nil {
		buf = new(dealBuf)
	}
	return i0, buf
}

// release hands a take's staging back to its view.
func (d *Dealer) release(v dealView, buf *dealBuf) {
	d.mu.Lock()
	d.views[v].buf = buf
	d.mu.Unlock()
}

// TakeSender appends the next count sender views of the given
// direction/arity, n seeds per instance, to stock and returns it. The
// stock grows in place while its capacity lasts.
func (d *Dealer) TakeSender(stock [][SeedLen]byte, senderParty, n, count int) [][SeedLen]byte {
	v := dealView{senderParty, n, false}
	i0, buf := d.reserve(v, count)
	stock = slices.Grow(stock, count*n)
	fresh := stock[len(stock) : len(stock)+count*n]
	hi := dealHi(dealSeeds, senderParty, n, 0)
	for b := 0; b < len(fresh); b += dealBatch {
		blks := fresh[b:min(b+dealBatch, len(fresh))]
		ks := buf.ks[:len(blks)*aes.BlockSize]
		// Whole blocks: the expansion needs no tail scratch.
		d.key.expand(ks, dealIV(hi, i0*uint64(n)+uint64(b)), nil)
		for j := range blks {
			blks[j] = [aes.BlockSize]byte(ks[j*aes.BlockSize:])
		}
	}
	d.release(v, buf)
	return stock[:len(stock)+count*n]
}

// TakeRecv appends the next count receiver views of the given
// direction/arity to stock and returns it. Per instance it expands the
// choice block, then encrypts the one counter block of the chosen seed.
func (d *Dealer) TakeRecv(stock []RecvInst, senderParty, n, count int) []RecvInst {
	v := dealView{senderParty, n, true}
	i0, buf := d.reserve(v, count)
	stock = slices.Grow(stock, count)
	fresh := stock[len(stock) : len(stock)+count]
	choice, seeds := dealHi(dealChoice, senderParty, n, 0), dealHi(dealSeeds, senderParty, n, 0)
	for lo := 0; lo < count; lo += dealBatch {
		insts := fresh[lo:min(lo+dealBatch, count)]
		ch, ctr := buf.ks[:len(insts)*aes.BlockSize], buf.ctr[:len(insts)*aes.BlockSize]
		d.key.expand(ch, dealIV(choice, i0+uint64(lo)), nil)
		for j := range insts {
			i := i0 + uint64(lo+j)
			blk := ch[j*aes.BlockSize : (j+1)*aes.BlockSize]
			c, ok := choiceOf(n, blk)
			for a := uint32(1); !ok; a++ {
				d.key.expand(blk, dealIV(choice+uint64(a), i), nil)
				c, ok = choiceOf(n, blk)
			}
			insts[j].Choice = c
			putCounter(ctr[j*aes.BlockSize:], seeds, i*uint64(n)+uint64(c))
		}
		d.key.encrypt(ctr, ctr)
		for j := range insts {
			insts[j].Seed = [aes.BlockSize]byte(ctr[j*aes.BlockSize:])
		}
	}
	d.release(v, buf)
	return stock[:len(stock)+count]
}

// choiceOf draws a choice in [0, n) from the little-endian 64-bit words
// of blk by rejection sampling, as prg.Intn does: the first word below
// the largest multiple of n that fits 64 bits, reduced mod n. ok is false
// when blk holds no such word.
func choiceOf(n int, blk []byte) (c int, ok bool) {
	bound := uint64(n)
	limit := ^uint64(0) / bound * bound
	for ; len(blk) >= 8; blk = blk[8:] {
		if v := binary.LittleEndian.Uint64(blk); v < limit {
			return int(v % bound), true
		}
	}
	return 0, false
}

// Endpoint is one party's OT interface: it owns the precomputed stock and
// runs the cheap online phases over the session connection. Refill is
// either dealer-backed (in-process) or IKNP extension on the wire. A
// networked endpoint either runs a plane's set-up — one public-key
// set-up for the first direction it needs, the other bootstrapped from κ
// OTs extended in the first — or is derived from a Plane with both
// directions up and runs neither.
type Endpoint struct {
	Party int // this party's index (0 or 1)
	Conn  transport.Conn
	Rng   *prg.PRG

	// Refill backends, in precedence order: Dealer (in-process trusted
	// offline phase), then IKNP extension: κ base OTs once (in
	// HarvestGroup, unless derived from a Plane), then PRG+hash-only
	// refills.
	Dealer       *Dealer
	HarvestGroup Group
	// UseExtension is always on: an endpoint without a Dealer refills by
	// IKNP extension whatever this field says. It stays for callers that
	// still set it.
	UseExtension bool

	// Pool spreads the pad, row-hash and combine loops over its workers;
	// nil runs them serially. Wire bytes and results are identical at every
	// worker count.
	Pool *parallel.Pool

	// Trace receives a span per online OT batch (nil disables tracing at
	// one branch per call). Like the rest of the endpoint it belongs to
	// one party's sequential protocol flow.
	Trace *telemetry.Scope

	extS *ExtSender
	extR *ExtReceiver

	// sendStock holds n seeds per instance of arity n; recvStock one view
	// per instance.
	sendStock map[int][][SeedLen]byte
	recvStock map[int][]RecvInst
}

// NewEndpoint returns an endpoint with empty stock.
func NewEndpoint(party int, conn transport.Conn, rng *prg.PRG) *Endpoint {
	return &Endpoint{
		Party:     party,
		Conn:      conn,
		Rng:       rng,
		sendStock: map[int][][SeedLen]byte{},
		recvStock: map[int][]RecvInst{},
	}
}

// sender returns the endpoint's extension-sender state, starting it on
// first use: from κ OTs minted in the reverse direction when that one is
// up, or else by a public-key set-up. The peer's receiver does the same
// in lockstep, since both endpoints see the same directions up.
func (e *Endpoint) sender() (*ExtSender, error) {
	if e.extS != nil {
		return e.extS, nil
	}
	var err error
	if e.extR != nil {
		e.extS, err = e.extR.mintBase(e.Pool)
	} else {
		e.extS, err = NewExtSender(e.Conn, e.HarvestGroup, e.Rng, ExtKappa)
	}
	return e.extS, err
}

// receiver is the counterpart of sender.
func (e *Endpoint) receiver() (*ExtReceiver, error) {
	if e.extR != nil {
		return e.extR, nil
	}
	var err error
	if e.extS != nil {
		e.extR, err = e.extS.mintBase(e.Pool, e.Rng)
	} else {
		e.extR, err = NewExtReceiver(e.Conn, e.HarvestGroup, e.Rng, ExtKappa)
	}
	return e.extR, err
}

// consume drops a stock's first k entries by moving the rest to the
// front. The stock keeps its capacity, so once an endpoint's stock has
// grown to its largest step, later refills grow it in place; a reslice
// would lose the consumed front and make every refill reallocate.
func consume[T any](stock []T, k int) []T { return stock[:copy(stock, stock[k:])] }

// log2Arity returns t for n = 2^t, rejecting non-power-of-two arities and
// any above 256: a shift travels in at most one byte, and the combiners
// fuse at most 8 components.
func log2Arity(n int) (int, error) {
	if n < 2 || n > 256 || n&(n-1) != 0 {
		return 0, fmt.Errorf("ot: extension supports power-of-two arities up to 256, got %d", n)
	}
	t := 0
	for v := n; v > 1; v >>= 1 {
		t++
	}
	return t, nil
}

// Send1ofN acts as OT sender for a batch: cands holds n candidates of
// msgLen bytes per instance, instance-major (see SendPre), and is
// overwritten with the ciphertexts it sends. It consumes
// len(cands)/(n·msgLen) precomputed instances.
func (e *Endpoint) Send1ofN(n, msgLen int, cands []byte) error {
	if len(cands) == 0 {
		return nil
	}
	count, err := batchLen(n, msgLen, len(cands))
	if err != nil {
		return err
	}
	sp := e.Trace.Enter("ot.send", telemetry.WithAttrs(
		telemetry.Int("arity", int64(n)), telemetry.Int("insts", int64(count))))
	defer e.Trace.Exit(sp)
	telemetry.Count("aq2pnn_ot_send_insts_total", uint64(count))
	if have := len(e.sendStock[n]) / n; have < count {
		if err := e.refillSend(map[int]int{n: count - have}); err != nil {
			return err
		}
	}
	if err := SendPre(e.Conn, e.Pool, e.sendStock[n][:count*n], n, msgLen, cands); err != nil {
		return err
	}
	e.sendStock[n] = consume(e.sendStock[n], count*n)
	return nil
}

// Recv1ofN acts as OT receiver for a batch of choices; message k is at
// k·msgLen of the result.
func (e *Endpoint) Recv1ofN(n int, choices []int, msgLen int) ([]byte, error) {
	if len(choices) == 0 {
		return nil, nil
	}
	sp := e.Trace.Enter("ot.recv", telemetry.WithAttrs(
		telemetry.Int("arity", int64(n)), telemetry.Int("insts", int64(len(choices)))))
	defer e.Trace.Exit(sp)
	telemetry.Count("aq2pnn_ot_recv_insts_total", uint64(len(choices)))
	if len(e.recvStock[n]) < len(choices) {
		if err := e.refillRecv(map[int]int{n: len(choices) - len(e.recvStock[n])}); err != nil {
			return nil, err
		}
	}
	pre := e.recvStock[n][:len(choices)]
	out, err := RecvPre(e.Conn, e.Pool, pre, n, choices, msgLen)
	if err != nil {
		return nil, err
	}
	e.recvStock[n] = consume(e.recvStock[n], len(choices))
	return out, nil
}
