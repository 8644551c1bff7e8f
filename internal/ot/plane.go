package ot

import (
	"errors"

	"aq2pnn/internal/prg"
	"aq2pnn/internal/transport"
)

// A plane is one stream of a session that runs many seqs' OTs: the
// preprocessing plane's fill stream, or the main stream's cold
// inferences. It runs one public-key set-up and keeps the base state of
// both IKNP directions (Plane); every seq's endpoint then continues those
// two IKNP instances (Derive) with no public-key flow and no bootstrap,
// as CrypTFlow2 runs its base OTs once per connection.
//
// Sharing Δ and the base seeds across endpoints is sound as long as no
// column stream and no row-hash tweak repeats. Both carry the extend
// counter, so an endpoint counts in a namespace of its own: the high bits
// of the counter name it, and the low nsBits count its extend calls per
// domain. Namespace 0 is the plane's own set-up endpoint; each seq has
// two, one per Half, at 2(seq+1) and 2(seq+1)+1. The domain byte and tag
// (domStock, domBase) separate the two domains within a namespace.

// Half names one of a seq's two namespaces on a plane.
type Half uint64

const (
	// KitHalf holds the endpoint a kit fill derives on the fill plane, or
	// a cold seq on the main plane.
	KitHalf Half = iota
	// OnlineHalf holds a warm seq's online endpoint, derived from the
	// fill plane that made its kit, so it never meets the kit's columns.
	OnlineHalf
)

// nsBits is the width of the per-namespace call count. There are
// 2^33 + 2 namespace indices (the plane's, an unused 1, and two per uint32
// seq), so the highest counter, (2^33+1)·2^30 + 2^30 − 1, still fits 64
// bits. A KitHalf namespace starts at (seq+1)·2^31.
const nsBits = 30

// nsStart is the first counter of seq's namespace in half h. It is
// computed in uint64: seq+1 in uint32 would wrap at MaxUint32 onto the
// plane's own namespace.
func nsStart(seq uint32, h Half) uint64 { return (2*(uint64(seq)+1) + uint64(h)) << nsBits }

// errNamespace reports an endpoint whose extend calls used up their
// counter namespace.
var errNamespace = errors.New("ot: extension counter namespace exhausted")

// checkCounter refuses an extend call at counter c when it would be the
// last call count of its namespace, so no endpoint's counter ever runs
// into the next namespace (a KitHalf endpoint into its seq's OnlineHalf).
// Both parties check the same counter before any traffic, so both refuse
// the same call.
func checkCounter(c uint64) error {
	const last = 1<<nsBits - 1
	if c&last == last {
		return errNamespace
	}
	return nil
}

// Plane is one party's base-OT state for both IKNP directions of a plane:
// Δ and the seed it selects per column on the extension-sender side, the
// seed pairs on the extension-receiver side, and each of those 3κ seeds
// keyed for its column expansion. It is κ-sized (about 72 KiB, nearly all
// of it round keys) and holds no stock and no connection; endpoints
// derived from it share its slices read-only, so it is safe for
// concurrent Derive calls.
type Plane struct {
	party    int
	delta    []byte
	seeds    [][SeedLen]byte
	sendKeys []colKey
	pairs    [][2][SeedLen]byte
	recvKeys [][2]colKey
}

// Plane starts whichever IKNP directions of e are not up yet — the one in
// which party 1 sends first, as triple.SetupFixed uses them — and returns
// their base state: at most one public-key set-up and one bootstrap. e's
// own extend calls count in namespace 0, so e must not be used for a
// seq's OTs afterwards; endpoints for seqs come from Derive.
func (e *Endpoint) Plane() (*Plane, error) {
	up := [2]func() error{
		func() error { _, err := e.receiver(); return err },
		func() error { _, err := e.sender(); return err },
	}
	if e.Party != 0 {
		up[0], up[1] = up[1], up[0]
	}
	for _, f := range up {
		if err := f(); err != nil {
			return nil, err
		}
	}
	s, r := e.extS, e.extR
	return &Plane{party: e.Party, delta: s.delta, seeds: s.seeds, sendKeys: s.keys, pairs: r.pairs, recvKeys: r.keys}, nil
}

// Derive returns this party's endpoint over conn for seq in half h: both
// IKNP directions up from the plane's base state, counting from that
// namespace, so it runs no public-key set-up and no bootstrap. rng draws
// the extension receiver's choice bits. A (plane, seq, half) must always
// extend under the same choice bits, as a replay from the same rng stream
// does: two extends of one column stream under different choices would
// show the peer their XOR.
func (p *Plane) Derive(conn transport.Conn, rng *prg.PRG, seq uint32, h Half) *Endpoint {
	e := NewEndpoint(p.party, conn, rng)
	ns := nsStart(seq, h)
	e.extS = &ExtSender{conn: conn, delta: p.delta, seeds: p.seeds, keys: p.sendKeys, counter: [2]uint64{ns, ns}}
	e.extR = &ExtReceiver{conn: conn, rng: rng, pairs: p.pairs, keys: p.recvKeys, counter: [2]uint64{ns, ns}}
	return e
}
