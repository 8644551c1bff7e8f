package ot

import (
	"fmt"
	"sync"

	"aq2pnn/internal/parallel"
	"aq2pnn/internal/prg"
	"aq2pnn/internal/telemetry"
	"aq2pnn/internal/transport"
)

// minChunk is the smallest refill batch. Both endpoints use the same
// policy, so harvest-backed refills stay in lockstep across the two
// processes without extra coordination traffic.
const minChunk = 1024

// Dealer is the in-process trusted offline phase: it deals matching
// sender/receiver views of random OT correlations to the two endpoints of
// a session. It is safe for concurrent use by both party goroutines.
type Dealer struct {
	mu  sync.Mutex
	g   *prg.PRG
	snd map[string][]SenderInst
	rcv map[string][]RecvInst
}

// NewDealer returns a dealer drawing correlations from g.
func NewDealer(g *prg.PRG) *Dealer {
	return &Dealer{g: g, snd: map[string][]SenderInst{}, rcv: map[string][]RecvInst{}}
}

func dirKey(senderParty, n int) string { return fmt.Sprintf("%d/%d", senderParty, n) }

func (d *Dealer) ensure(key string, n, count int) {
	for len(d.snd[key]) < count || len(d.rcv[key]) < count {
		s, r := Deal(d.g, n, minChunk)
		d.snd[key] = append(d.snd[key], s...)
		d.rcv[key] = append(d.rcv[key], r...)
	}
}

// TakeSender removes `count` sender views for the given direction/arity.
func (d *Dealer) TakeSender(senderParty, n, count int) []SenderInst {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := dirKey(senderParty, n)
	d.ensure(key, n, count)
	out := d.snd[key][:count]
	d.snd[key] = d.snd[key][count:]
	return out
}

// TakeRecv removes `count` receiver views for the given direction/arity.
func (d *Dealer) TakeRecv(senderParty, n, count int) []RecvInst {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := dirKey(senderParty, n)
	d.ensure(key, n, count)
	out := d.rcv[key][:count]
	d.rcv[key] = d.rcv[key][count:]
	return out
}

// Endpoint is one party's OT interface: it owns the precomputed stock and
// runs the cheap online phases over the session connection. Refill is
// either dealer-backed (in-process) or harvest-backed (real base OTs over
// the wire).
type Endpoint struct {
	Party int // this party's index (0 or 1)
	Conn  transport.Conn
	Rng   *prg.PRG

	// Refill backends, in precedence order: Dealer (in-process trusted
	// offline phase), IKNP extension over HarvestGroup (UseExtension), or
	// per-instance base-OT harvesting over HarvestGroup.
	Dealer       *Dealer
	HarvestGroup Group
	// UseExtension turns on IKNP OT extension: κ base OTs once, then
	// PRG+hash-only refills. Both endpoints must agree.
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

	sendStock map[int][]SenderInst
	recvStock map[int][]RecvInst
}

// NewEndpoint returns an endpoint with empty stock.
func NewEndpoint(party int, conn transport.Conn, rng *prg.PRG) *Endpoint {
	return &Endpoint{
		Party:     party,
		Conn:      conn,
		Rng:       rng,
		sendStock: map[int][]SenderInst{},
		recvStock: map[int][]RecvInst{},
	}
}

func (e *Endpoint) refillSend(n, need int) error {
	chunk := need
	if chunk < minChunk {
		chunk = minChunk
	}
	if e.Dealer != nil {
		e.sendStock[n] = append(e.sendStock[n], e.Dealer.TakeSender(e.Party, n, chunk)...)
		return nil
	}
	if e.UseExtension {
		// The single-arity case of the coalesced refill: one Extend call.
		return e.refillSendMulti(map[int]int{n: need})
	}
	got, err := HarvestSend(e.Conn, e.HarvestGroup, e.Rng, n, chunk)
	if err != nil {
		return err
	}
	e.sendStock[n] = append(e.sendStock[n], got...)
	return nil
}

func (e *Endpoint) refillRecv(n, need int) error {
	chunk := need
	if chunk < minChunk {
		chunk = minChunk
	}
	if e.Dealer != nil {
		// The sender of these correlations is the other party.
		e.recvStock[n] = append(e.recvStock[n], e.Dealer.TakeRecv(1-e.Party, n, chunk)...)
		return nil
	}
	if e.UseExtension {
		// The single-arity case of the coalesced refill: one Extend call.
		return e.refillRecvMulti(map[int]int{n: need})
	}
	got, err := HarvestRecv(e.Conn, e.Rng, n, chunk)
	if err != nil {
		return err
	}
	e.recvStock[n] = append(e.recvStock[n], got...)
	return nil
}

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

// Send1ofN acts as OT sender for a batch: msgs[k] holds the n candidate
// messages of instance k. It consumes len(msgs) precomputed instances.
func (e *Endpoint) Send1ofN(n int, msgs [][][]byte) error {
	if len(msgs) == 0 {
		return nil
	}
	sp := e.Trace.Enter("ot.send", telemetry.WithAttrs(
		telemetry.Int("arity", int64(n)), telemetry.Int("insts", int64(len(msgs)))))
	defer e.Trace.Exit(sp)
	telemetry.Count("aq2pnn_ot_send_insts_total", uint64(len(msgs)))
	if len(e.sendStock[n]) < len(msgs) {
		if err := e.refillSend(n, len(msgs)-len(e.sendStock[n])); err != nil {
			return err
		}
	}
	pre := e.sendStock[n][:len(msgs)]
	if err := SendPre(e.Conn, e.Pool, pre, n, msgs); err != nil {
		return err
	}
	e.sendStock[n] = e.sendStock[n][len(msgs):]
	return nil
}

// Recv1ofN acts as OT receiver for a batch of choices.
func (e *Endpoint) Recv1ofN(n int, choices []int, msgLen int) ([][]byte, error) {
	if len(choices) == 0 {
		return nil, nil
	}
	sp := e.Trace.Enter("ot.recv", telemetry.WithAttrs(
		telemetry.Int("arity", int64(n)), telemetry.Int("insts", int64(len(choices)))))
	defer e.Trace.Exit(sp)
	telemetry.Count("aq2pnn_ot_recv_insts_total", uint64(len(choices)))
	if len(e.recvStock[n]) < len(choices) {
		if err := e.refillRecv(n, len(choices)-len(e.recvStock[n])); err != nil {
			return nil, err
		}
	}
	pre := e.recvStock[n][:len(choices)]
	out, err := RecvPre(e.Conn, e.Pool, pre, n, choices, msgLen)
	if err != nil {
		return nil, err
	}
	e.recvStock[n] = e.recvStock[n][len(choices):]
	return out, nil
}

// Stock reports the available precomputed instances for an arity, for
// tests and capacity planning.
func (e *Endpoint) Stock(n int) (send, recv int) {
	return len(e.sendStock[n]), len(e.recvStock[n])
}
