package ot

import (
	"fmt"
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
// A sender stream is one seed slab, n seeds per instance. Every slice the
// dealer hands out is capacity-clipped: an append to a taken slice
// reallocates instead of writing into stock not yet handed out.
type Dealer struct {
	mu  sync.Mutex
	g   *prg.PRG
	snd map[dealKey][][SeedLen]byte
	rcv map[dealKey][]RecvInst
}

// dealKey names one stream of correlations: a direction (the sending
// party) and an arity.
type dealKey struct{ sender, n int }

// NewDealer returns a dealer drawing correlations from g.
func NewDealer(g *prg.PRG) *Dealer {
	return &Dealer{g: g, snd: map[dealKey][][SeedLen]byte{}, rcv: map[dealKey][]RecvInst{}}
}

// ensure tops both views of k up to at least count instances. It deals the
// deficit, rounded up to whole minChunk blocks, in one call into a fresh
// slab behind the small remainder. The rounding matters: every stream draws
// from the one PRG, so the size of each deal fixes where the next stream's
// draws begin, and whole blocks keep those positions what dealing one
// block at a time gave.
func (d *Dealer) ensure(k dealKey, count int) {
	s, r := d.snd[k], d.rcv[k]
	short := count - min(len(s)/k.n, len(r))
	if short <= 0 {
		return
	}
	deal := (short + minChunk - 1) / minChunk * minChunk
	ns := make([][SeedLen]byte, len(s)+deal*k.n)
	nr := make([]RecvInst, len(r)+deal)
	copy(ns, s)
	copy(nr, r)
	dealInto(d.g, k.n, ns[len(s):], nr[len(r):])
	d.snd[k], d.rcv[k] = ns, nr
}

// TakeSender removes `count` sender views for the given direction/arity:
// count·n seeds, n per instance.
func (d *Dealer) TakeSender(senderParty, n, count int) [][SeedLen]byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	k := dealKey{senderParty, n}
	d.ensure(k, count)
	out := d.snd[k][: count*n : count*n]
	d.snd[k] = d.snd[k][count*n:]
	return out
}

// TakeRecv removes `count` receiver views for the given direction/arity.
func (d *Dealer) TakeRecv(senderParty, n, count int) []RecvInst {
	d.mu.Lock()
	defer d.mu.Unlock()
	k := dealKey{senderParty, n}
	d.ensure(k, count)
	out := d.rcv[k][:count:count]
	d.rcv[k] = d.rcv[k][count:]
	return out
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

// stockUp appends fresh instances to an arity's stock. An empty stock
// takes fresh as it is, without a copy; dealer takes are capacity-clipped,
// so a later append never writes into the dealer's memory.
func stockUp[T any](stock, fresh []T) []T {
	if len(stock) == 0 {
		return fresh
	}
	return append(stock, fresh...)
}

// consume drops a stock's first k entries by moving the rest to the
// front. The stock keeps its capacity, so once an endpoint's stock has
// grown to its largest step, later refills grow it in place; a reslice
// would lose the consumed front and make every refill reallocate. A
// dealer take is the endpoint's own memory too: the copy stays inside it.
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
